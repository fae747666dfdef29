/* Optional C fast path for the linear-bounded gain kernels.
 *
 * The negotiation protocol and the offline TabularGreedy sweep evaluate
 * millions of tiny (R x P x t) marginal-gain tensors per run (R =
 * matched sample rows, P = policies, t = receivable tasks; all of order
 * 10).  At that size the arithmetic is trivial and the cost is per-call
 * NumPy dispatch, so the hot operations are provided here as single C
 * calls.  The offline sweep (offline/centralized.py) uses fill, finish
 * and fold on its one (S, m) energy state; the synchronous lossless
 * negotiation (distributed.py) runs one negotiate_slot call per slot; the
 * per-agent proposal refresh of the asynchronous and fault-injected
 * negotiation loops uses fill and finish.
 *
 *   fill(view, tens, rows, dirty, cols, add, E) -> None
 *     Refresh rows of the clipped-utility difference tensor
 *     ``tens[r, p, j] = min((e + a) / E, 1) - min(e / E, 1)`` from the
 *     agent's energy ``view`` — the gather plus element-wise stage of
 *     the linear-bounded gain kernel.  ``dirty`` selects row positions
 *     (None = all rows).  ``E`` and ``cols`` must hold one entry per
 *     task column (ValueError otherwise).
 *
 *   finish(rg, total_samples) -> (best_policy, best_total)
 *     Column-sum the per-row gains, normalize, and take the first
 *     maximum (np.argmax semantics).
 *
 *   fold(views, obs, rows, cols, vals) -> None
 *     Scatter-add a committed policy's per-task energy ``vals`` into the
 *     (receiver, sample-row, task-column) block of the stacked (n, S, m)
 *     views array.
 *
 *   negotiate_slot(window, q, active, groups, table, commit_rounds)
 *       -> (messages, broadcasts, rounds, negotiations, evals, hits)
 *     Every colour's synchronous lossless negotiation of window slot ``q``,
 *     round by round, exactly as the Python loop of distributed.py runs it:
 *     the proposal cache with its dirty rows, advertisement and
 *     withdrawal, the local-max commit test (ties to the lower ID), the
 *     UPD folds in ascending winner order with cache invalidation, and the
 *     counts.  Each commit is written into ``table`` (``(charger, slot,
 *     color) -> policy``) and its round appended to ``commit_rounds``; the
 *     returned tuple holds the MessageStats deltas and the proposal
 *     evaluations and cache hits.  ``window`` is the tuple
 *     ``_slot_window`` in distributed.py binds once per window: the
 *     stacked views, the colour draws, the colour count, the window's
 *     slots, the per-charger bindings (receivable columns, required
 *     energies, column weights, scratch buffers and the (|window|, P, t)
 *     slot-energy blocks), the neighbour lists as CSR arrays and the
 *     receivable-column masks.  ``active`` lists the slot's participants
 *     in ascending order and ``groups`` their colour-draw columns.
 *     Raises RuntimeError on a round without a winner (livelock), with
 *     the Python loop's message.
 *
 * Numerical contract: every operation here is bit-for-bit identical to
 * the pure NumPy reference paths in distributed.py and centralized.py.
 * Element-wise ops (add, divide, clip, subtract) are the same IEEE-754
 * double ops; the column sum replicates NumPy's sequential row
 * accumulation for an axis-0 reduction with >= 2 columns.  The weighted
 * sum over tasks, whose BLAS-blocked ordering is not reproducible in
 * portable C, is NumPy's own: fill/finish leave it to ``np.matmul(tens,
 * w, out=rg)`` in the caller, and negotiate_slot calls np.matmul's
 * float64 inner loop directly (bound once at import from the ufunc's
 * public type table) with the dimensions and steps NumPy passes for
 * ``tens[:R] @ w``, so the same BLAS call or plain loop runs on the same
 * operands.  The module fails to load, and the NumPy path runs, if
 * np.matmul has no float64 loop.  Compile with -ffp-contract=off so no
 * FMA contraction changes rounding; see _ckernel.py for the build and the
 * fallback story.
 *
 * The callers own the argument contract: C-contiguous
 * float64 view/tens/rg/add/E/vals, C-contiguous intp rows/cols,
 * ``dirty`` a list of row positions or None, ``obs`` a list of receiver
 * indices.  Only cheap structural checks are repeated here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/ufuncobject.h>

/* Fixed scratch capacity; the Python side falls back to NumPy for
 * instances larger than this (never hit by the paper's scales). */
#define FP_MAX_DIM 512

/* repro.objective.haste.MIN_GAIN: proposals at or below it withdraw. */
#define MIN_GAIN 1e-12

/* One row of the difference tensor: ``trow`` (P x t) from the energy row
 * ``vrow`` (full width m, read at ``cols``). */
static void
fill_row(const double *vrow, const npy_intp *cols, npy_intp t,
         const double *add, npy_intp P, const double *E, double *trow)
{
    double ev[FP_MAX_DIM];   /* current energy per column */
    double base[FP_MAX_DIM]; /* min(e / E, 1) per column  */
    for (npy_intp j = 0; j < t; j++) {
        const double e = vrow[cols[j]];
        const double b = e / E[j];
        ev[j] = e;
        base[j] = b > 1.0 ? 1.0 : b;
    }
    for (npy_intp p = 0; p < P; p++) {
        const double *ap = add + p * t;
        double *tp = trow + p * t;
        for (npy_intp j = 0; j < t; j++) {
            double x = (ev[j] + ap[j]) / E[j];
            if (x > 1.0) {
                x = 1.0;
            }
            tp[j] = x - base[j];
        }
    }
}

/* NumPy's axis-0 reduction over a C-contiguous (R, P>=2) array is a
 * sequential row accumulation — replicated exactly here — followed by
 * the normalization and np.argmax's first maximum. */
static void
finish_rows(const double *rg, npy_intp R, npy_intp P, double total_samples,
            npy_intp *best, double *best_v)
{
    double total[FP_MAX_DIM];
    for (npy_intp p = 0; p < P; p++) {
        total[p] = 0.0;
    }
    for (npy_intp r = 0; r < R; r++) {
        const double *rgr = rg + r * P;
        for (npy_intp p = 0; p < P; p++) {
            total[p] += rgr[p];
        }
    }
    npy_intp win = 0;
    double win_v = total[0] / total_samples;
    for (npy_intp p = 1; p < P; p++) {
        const double v = total[p] / total_samples;
        if (v > win_v) {
            win_v = v;
            win = p;
        }
    }
    *best = win;
    *best_v = win_v;
}

/* views[rows, cols] += vals on one receiver's (S, m) view. */
static void
fold_block(double *view, npy_intp m, const npy_intp *rows, npy_intp R,
           const npy_intp *cols, npy_intp t, const double *vals)
{
    for (npy_intp r = 0; r < R; r++) {
        double *vrow = view + rows[r] * m;
        for (npy_intp j = 0; j < t; j++) {
            vrow[cols[j]] += vals[j];
        }
    }
}

static PyObject *
fastpath_fill(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fill expects 7 arguments");
        return NULL;
    }
    PyArrayObject *view = (PyArrayObject *)args[0];
    PyArrayObject *tens = (PyArrayObject *)args[1];
    PyArrayObject *rows = (PyArrayObject *)args[2];
    PyObject *dirty = args[3];
    PyArrayObject *cols = (PyArrayObject *)args[4];
    PyArrayObject *add = (PyArrayObject *)args[5];
    PyArrayObject *E = (PyArrayObject *)args[6];

    const npy_intp R = PyArray_DIM(tens, 0);
    const npy_intp P = PyArray_DIM(tens, 1);
    const npy_intp t = PyArray_DIM(tens, 2);
    const npy_intp m = PyArray_DIM(view, 1);
    if (t > FP_MAX_DIM) {
        PyErr_SetString(PyExc_ValueError, "fill: too many task columns");
        return NULL;
    }
    /* E and cols are read once per task column. */
    if (PyArray_NDIM(E) != 1 || PyArray_DIM(E, 0) != t
        || PyArray_NDIM(cols) != 1 || PyArray_DIM(cols, 0) != t) {
        PyErr_SetString(PyExc_ValueError,
                        "fill: E and cols need one entry per task column");
        return NULL;
    }

    const double *view_d = (const double *)PyArray_DATA(view);
    double *tens_d = (double *)PyArray_DATA(tens);
    const npy_intp *rows_d = (const npy_intp *)PyArray_DATA(rows);
    const npy_intp *cols_d = (const npy_intp *)PyArray_DATA(cols);
    const double *add_d = (const double *)PyArray_DATA(add);
    const double *E_d = (const double *)PyArray_DATA(E);

    npy_intp n_refresh;
    PyObject **dirty_items = NULL;
    if (dirty == Py_None) {
        n_refresh = R;
    } else {
        if (!PyList_Check(dirty)) {
            PyErr_SetString(PyExc_TypeError, "fill: dirty must be list|None");
            return NULL;
        }
        n_refresh = PyList_GET_SIZE(dirty);
        dirty_items = ((PyListObject *)dirty)->ob_item;
    }
    for (npy_intp d = 0; d < n_refresh; d++) {
        npy_intp r;
        if (dirty_items == NULL) {
            r = d;
        } else {
            r = PyLong_AsSsize_t(dirty_items[d]);
            if (r < 0 || r >= R) {
                if (PyErr_Occurred()) {
                    return NULL;
                }
                PyErr_SetString(PyExc_IndexError, "fill: dirty out of range");
                return NULL;
            }
        }
        fill_row(view_d + rows_d[r] * m, cols_d, t, add_d, P, E_d,
                 tens_d + r * P * t);
    }
    Py_RETURN_NONE;
}

static PyObject *
fastpath_finish(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "finish expects 2 arguments");
        return NULL;
    }
    double total_samples = PyFloat_AsDouble(args[1]);
    if (total_samples == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    PyArrayObject *rg = (PyArrayObject *)args[0];
    const npy_intp P = PyArray_DIM(rg, 1);
    if (P < 2 || P > FP_MAX_DIM) {
        /* P == 1 would take NumPy's pairwise (contiguous-axis) summation
         * path, which this sequential loop does not replicate; callers
         * only negotiate partitions with at least two policies. */
        PyErr_SetString(PyExc_ValueError, "finish: policy count out of range");
        return NULL;
    }
    npy_intp best;
    double best_v;
    finish_rows((const double *)PyArray_DATA(rg), PyArray_DIM(rg, 0), P,
                total_samples, &best, &best_v);
    return Py_BuildValue("nd", (Py_ssize_t)best, best_v);
}

static PyObject *
fastpath_fold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "fold expects 5 arguments");
        return NULL;
    }
    PyArrayObject *views = (PyArrayObject *)args[0];
    PyObject *obs = args[1];
    PyArrayObject *rows = (PyArrayObject *)args[2];
    PyArrayObject *cols = (PyArrayObject *)args[3];
    PyArrayObject *vals = (PyArrayObject *)args[4];
    if (!PyList_Check(obs)) {
        PyErr_SetString(PyExc_TypeError, "fold: obs must be a list");
        return NULL;
    }

    const npy_intp n = PyArray_DIM(views, 0);
    const npy_intp S = PyArray_DIM(views, 1);
    const npy_intp m = PyArray_DIM(views, 2);
    double *views_d = (double *)PyArray_DATA(views);

    const Py_ssize_t n_obs = PyList_GET_SIZE(obs);
    PyObject **obs_items = ((PyListObject *)obs)->ob_item;
    for (Py_ssize_t o = 0; o < n_obs; o++) {
        const npy_intp i = PyLong_AsSsize_t(obs_items[o]);
        if (i < 0 || i >= n) {
            if (PyErr_Occurred()) {
                return NULL;
            }
            PyErr_SetString(PyExc_IndexError, "fold: receiver out of range");
            return NULL;
        }
        fold_block(views_d + i * S * m, m,
                   (const npy_intp *)PyArray_DATA(rows), PyArray_DIM(rows, 0),
                   (const npy_intp *)PyArray_DATA(cols), PyArray_DIM(cols, 0),
                   (const double *)PyArray_DATA(vals));
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* negotiate_slot                                                      */
/* ------------------------------------------------------------------ */

/* np.matmul's float64 inner loop and its data, bound at import. */
static PyUFuncGenericFunction matmul_dd;
static void *matmul_dd_data;

/* The window tuple, unpacked (all references borrowed from it). */
typedef struct {
    double *views;            /* (n, S, m) stacked energy views */
    npy_intp n, S, m;
    const npy_int64 *colors;  /* (S, G) colour draws */
    npy_intp G;
    npy_intp num_colors;
    const npy_intp *slots;    /* (W,) the window's slots */
    npy_intp W;
    PyObject *agents;         /* list of n bindings (None = off the race) */
    const npy_intp *nbr_ptr;  /* (n + 1,) CSR offsets into nbr_idx */
    const npy_intp *nbr_idx;
    const unsigned char *colmask; /* (n, m) receivable-column masks */
} Window;

/* One active agent's negotiation state for the current colour. */
typedef struct {
    npy_intp id, group, P, t, R;
    const npy_intp *cols;
    const double *E, *w;
    const double *add;        /* (P, t) slot-energy block of this slot */
    double *tens, *rg;
    const unsigned char *colmask;
    npy_intp *rows;           /* matching sample rows, ascending */
    unsigned char *inrow;     /* (S,) 1 where the row matches */
    unsigned char *dirty;     /* (S,) 1 where a commit wrote the row */
    double gain;              /* cached proposal (valid != 0) */
    npy_intp policy;
    char valid, bound, undecided, standing;
} SlotAgent;

static int
is_array(PyObject *obj, int ndim, int type_num, const char *what)
{
    if (!PyArray_Check(obj)
        || PyArray_NDIM((PyArrayObject *)obj) != ndim
        || PyArray_TYPE((PyArrayObject *)obj) != type_num
        || !PyArray_IS_C_CONTIGUOUS((PyArrayObject *)obj)) {
        PyErr_Format(PyExc_ValueError,
                     "negotiate_slot: %s must be a C-contiguous %d-d array "
                     "of the bound dtype", what, ndim);
        return 0;
    }
    return 1;
}

static int
parse_window(PyObject *obj, Window *win)
{
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != 8) {
        PyErr_SetString(PyExc_TypeError,
                        "negotiate_slot: window must be an 8-tuple");
        return -1;
    }
    PyObject *views = PyTuple_GET_ITEM(obj, 0);
    PyObject *colors = PyTuple_GET_ITEM(obj, 1);
    PyObject *slots = PyTuple_GET_ITEM(obj, 3);
    PyObject *nbr_ptr = PyTuple_GET_ITEM(obj, 5);
    PyObject *nbr_idx = PyTuple_GET_ITEM(obj, 6);
    PyObject *colmask = PyTuple_GET_ITEM(obj, 7);
    if (!is_array(views, 3, NPY_DOUBLE, "views")
        || !is_array(colors, 2, NPY_INT64, "colors")
        || !is_array(slots, 1, NPY_INTP, "slots")
        || !is_array(nbr_ptr, 1, NPY_INTP, "nbr_ptr")
        || !is_array(nbr_idx, 1, NPY_INTP, "nbr_idx")
        || !is_array(colmask, 2, NPY_UINT8, "colmask")) {
        return -1;
    }
    PyArrayObject *v = (PyArrayObject *)views;
    win->views = (double *)PyArray_DATA(v);
    win->n = PyArray_DIM(v, 0);
    win->S = PyArray_DIM(v, 1);
    win->m = PyArray_DIM(v, 2);
    win->colors = (const npy_int64 *)PyArray_DATA((PyArrayObject *)colors);
    win->G = PyArray_DIM((PyArrayObject *)colors, 1);
    win->num_colors = PyLong_AsSsize_t(PyTuple_GET_ITEM(obj, 2));
    if (win->num_colors == -1 && PyErr_Occurred()) {
        return -1;
    }
    win->slots = (const npy_intp *)PyArray_DATA((PyArrayObject *)slots);
    win->W = PyArray_DIM((PyArrayObject *)slots, 0);
    win->agents = PyTuple_GET_ITEM(obj, 4);
    win->nbr_ptr = (const npy_intp *)PyArray_DATA((PyArrayObject *)nbr_ptr);
    win->nbr_idx = (const npy_intp *)PyArray_DATA((PyArrayObject *)nbr_idx);
    win->colmask = (const unsigned char *)PyArray_DATA((PyArrayObject *)colmask);
    if (PyArray_DIM((PyArrayObject *)colors, 0) != win->S
        || !PyList_Check(win->agents) || PyList_GET_SIZE(win->agents) != win->n
        || PyArray_DIM((PyArrayObject *)nbr_ptr, 0) != win->n + 1
        || PyArray_DIM((PyArrayObject *)colmask, 0) != win->n
        || PyArray_DIM((PyArrayObject *)colmask, 1) != win->m) {
        PyErr_SetString(PyExc_ValueError,
                        "negotiate_slot: window shapes do not agree");
        return -1;
    }
    return 0;
}

/* Bind one active agent: its window binding ``(cols, E, w, tens, rg,
 * blocks)``, with ``add`` the (P, t) block of window slot ``q``. */
static int
bind_agent(const Window *win, SlotAgent *ag, npy_intp q)
{
    PyObject *binding = PyList_GET_ITEM(win->agents, ag->id);
    if (!PyTuple_Check(binding) || PyTuple_GET_SIZE(binding) != 6) {
        PyErr_SetString(PyExc_ValueError,
                        "negotiate_slot: active charger without a binding");
        return -1;
    }
    PyObject *cols = PyTuple_GET_ITEM(binding, 0);
    PyObject *E = PyTuple_GET_ITEM(binding, 1);
    PyObject *w = PyTuple_GET_ITEM(binding, 2);
    PyObject *tens_arr = PyTuple_GET_ITEM(binding, 3);
    PyObject *rg_arr = PyTuple_GET_ITEM(binding, 4);
    PyObject *blocks_arr = PyTuple_GET_ITEM(binding, 5);
    if (!is_array(cols, 1, NPY_INTP, "cols")
        || !is_array(E, 1, NPY_DOUBLE, "E")
        || !is_array(w, 1, NPY_DOUBLE, "w")
        || !is_array(tens_arr, 3, NPY_DOUBLE, "tens")
        || !is_array(rg_arr, 2, NPY_DOUBLE, "rg")
        || !is_array(blocks_arr, 3, NPY_DOUBLE, "blocks")) {
        return -1;
    }
    PyArrayObject *tens = (PyArrayObject *)tens_arr;
    PyArrayObject *rg = (PyArrayObject *)rg_arr;
    PyArrayObject *blocks = (PyArrayObject *)blocks_arr;
    ag->P = PyArray_DIM(tens, 1);
    ag->t = PyArray_DIM(tens, 2);
    if (ag->P < 2 || ag->P > FP_MAX_DIM || ag->t < 1 || ag->t > FP_MAX_DIM
        || PyArray_DIM(tens, 0) != win->S
        || PyArray_DIM(rg, 0) != win->S || PyArray_DIM(rg, 1) != ag->P
        || PyArray_DIM((PyArrayObject *)cols, 0) != ag->t
        || PyArray_DIM((PyArrayObject *)E, 0) != ag->t
        || PyArray_DIM((PyArrayObject *)w, 0) != ag->t
        || PyArray_DIM(blocks, 0) != win->W
        || PyArray_DIM(blocks, 1) != ag->P
        || PyArray_DIM(blocks, 2) != ag->t) {
        PyErr_SetString(PyExc_ValueError,
                        "negotiate_slot: charger binding shapes do not agree");
        return -1;
    }
    ag->cols = (const npy_intp *)PyArray_DATA((PyArrayObject *)cols);
    ag->E = (const double *)PyArray_DATA((PyArrayObject *)E);
    ag->w = (const double *)PyArray_DATA((PyArrayObject *)w);
    ag->add = (const double *)PyArray_DATA(blocks) + q * ag->P * ag->t;
    ag->tens = (double *)PyArray_DATA(tens);
    ag->rg = (double *)PyArray_DATA(rg);
    ag->colmask = win->colmask + ag->id * win->m;
    return 0;
}

/* Start colour ``c``: match rows from the colour draws, fresh caches. */
static void
start_negotiation(const Window *win, SlotAgent *ag, npy_int64 c)
{
    const npy_intp S = win->S, G = win->G;
    npy_intp R = 0;
    for (npy_intp s = 0; s < S; s++) {
        const char hit = win->colors[s * G + ag->group] == c;
        ag->inrow[s] = hit;
        ag->dirty[s] = 0;
        if (hit) {
            ag->rows[R++] = s;
        }
    }
    ag->R = R;
    ag->valid = ag->bound = ag->standing = 0;
    ag->undecided = 1;
}

/* ``rg[:R] = tens[:R] @ w`` through np.matmul's float64 loop, with the
 * dimensions and steps NumPy passes for it: R outer iterations of a
 * (P, t) @ (t,) product whose missing ``m`` dimension has size 1 and
 * stride 0. */
static void
weighted_sums(const SlotAgent *ag)
{
    const npy_intp d = sizeof(double), P = ag->P, t = ag->t;
    char *args[3] = {(char *)ag->tens, (char *)ag->w, (char *)ag->rg};
    const npy_intp dims[4] = {ag->R, P, t, 1};
    const npy_intp steps[9] = {
        P * t * d, 0, P * d, /* outer: tens, w, rg */
        t * d, d,            /* tens (n, k) */
        d, 0,                /* w (k, m) */
        d, 0,                /* rg (n, m) */
    };
    matmul_dd(args, dims, steps, matmul_dd_data);
}

/* The agent's best (gain, policy): refresh the rows commits wrote (all
 * rows on the first call of a negotiation), the task sum, then finish.
 * Policy 0 is idle (IDLE_POLICY). */
static void
evaluate(const Window *win, SlotAgent *ag)
{
    ag->valid = 1;
    if (ag->R == 0) {
        ag->gain = 0.0;
        ag->policy = 0;
        return;
    }
    const npy_intp P = ag->P, t = ag->t, m = win->m;
    const double *view = win->views + ag->id * win->S * m;
    for (npy_intp q = 0; q < ag->R; q++) {
        const npy_intp r = ag->rows[q];
        if (!ag->bound || ag->dirty[r]) {
            fill_row(view + r * m, ag->cols, t, ag->add, P, ag->E,
                     ag->tens + q * P * t);
            ag->dirty[r] = 0;
        }
    }
    ag->bound = 1;
    weighted_sums(ag);
    npy_intp best;
    double best_v;
    finish_rows(ag->rg, ag->R, P, (double)win->S, &best, &best_v);
    if (best == 0 || best_v <= MIN_GAIN) {
        ag->gain = 0.0;
        ag->policy = 0;
    } else {
        ag->gain = best_v;
        ag->policy = best;
    }
}

/* ``recv`` learns of ``w``'s commit of the energy ``vals``: its cached
 * proposal survives unless the commit wrote one of its matching rows on
 * one of its receivable tasks (``vals > 0`` marks the changed tasks);
 * otherwise the written rows turn dirty. */
static void
note_commit(SlotAgent *recv, const SlotAgent *w, const double *vals)
{
    if (!recv->valid && !recv->bound) {
        return; /* nothing cached to maintain */
    }
    npy_intp q = 0;
    while (q < w->R && !recv->inrow[w->rows[q]]) {
        q++;
    }
    if (q == w->R) {
        return;
    }
    npy_intp j = 0;
    while (j < w->t && !(vals[j] > 0.0 && recv->colmask[w->cols[j]])) {
        j++;
    }
    if (j == w->t) {
        return;
    }
    recv->valid = 0;
    for (; q < w->R; q++) {
        const npy_intp r = w->rows[q];
        if (recv->inrow[r]) {
            recv->dirty[r] = 1;
        }
    }
}

/* table[(w, k, c)] = policy; commit_rounds.append(rnd). */
static int
record_commit(PyObject *table, PyObject *commit_rounds, const SlotAgent *ag,
              npy_intp k, npy_intp c, npy_intp rnd)
{
    PyObject *key = Py_BuildValue("(nnn)", ag->id, k, c);
    PyObject *pol = PyLong_FromSsize_t(ag->policy);
    PyObject *round_index = PyLong_FromSsize_t(rnd);
    int rc = -1;
    if (key != NULL && pol != NULL && round_index != NULL
        && PyDict_SetItem(table, key, pol) == 0
        && PyList_Append(commit_rounds, round_index) == 0) {
        rc = 0;
    }
    Py_XDECREF(key);
    Py_XDECREF(pol);
    Py_XDECREF(round_index);
    return rc;
}

static inline npy_intp
degree(const Window *win, npy_intp i)
{
    return win->nbr_ptr[i + 1] - win->nbr_ptr[i];
}

/* One slot call: its active agents, workspace, outputs and counts. */
typedef struct {
    const Window *win;
    SlotAgent *ags;
    npy_intp A, k;
    npy_intp *loc;            /* (n,) charger -> agent index, -1 if inactive */
    npy_intp *contenders, *winners;
    PyObject *table, *commit_rounds;
    npy_intp messages, broadcasts, rounds, negotiations, evals, hits;
} Slot;

/* Colour ``c``'s negotiation, round by round.  Returns 0, or -1 with a
 * Python exception set. */
static int
negotiate_color(Slot *sl, npy_intp c)
{
    const Window *win = sl->win;
    SlotAgent *ags = sl->ags;
    const npy_intp A = sl->A, S = win->S, m = win->m;
    sl->negotiations++;
    npy_intp undecided = A;
    /* Degree sum of the undecided agents: one message per neighbour per
     * broadcast in the synchronous model. */
    npy_intp deg_u = 0;
    for (npy_intp a = 0; a < A; a++) {
        start_negotiation(win, &ags[a], c);
        deg_u += degree(win, ags[a].id);
    }
    for (npy_intp rnd = 1; undecided > 0; rnd++) {
        /* Advertisement: every undecided agent broadcasts its best
         * marginal, recomputed only when a commit invalidated it. */
        for (npy_intp a = 0; a < A; a++) {
            SlotAgent *ag = &ags[a];
            if (!ag->undecided) {
                continue;
            }
            if (ag->valid) {
                sl->hits++;
            } else {
                sl->evals++;
                evaluate(win, ag);
            }
            ag->standing = ag->gain > MIN_GAIN;
        }
        sl->broadcasts += undecided;
        sl->messages += deg_u;
        sl->rounds++;

        /* Withdrawal: agents with no positive gain are done. */
        npy_intp n_cont = 0;
        for (npy_intp a = 0; a < A; a++) {
            SlotAgent *ag = &ags[a];
            if (!ag->undecided) {
                continue;
            }
            if (ag->gain <= MIN_GAIN) {
                ag->undecided = 0;
                undecided--;
                deg_u -= degree(win, ag->id);
            } else {
                sl->contenders[n_cont++] = a;
            }
        }
        if (undecided == 0) {
            break;
        }

        /* Commit: local maxima of (gain, -id) over the neighbours'
         * standing advertisements. */
        npy_intp n_win = 0;
        for (npy_intp q = 0; q < n_cont; q++) {
            const SlotAgent *ag = &ags[sl->contenders[q]];
            int beaten = 0;
            for (npy_intp e = win->nbr_ptr[ag->id];
                 e < win->nbr_ptr[ag->id + 1] && !beaten; e++) {
                const npy_intp j = win->nbr_idx[e];
                const npy_intp l = sl->loc[j];
                if (l >= 0 && ags[l].standing) {
                    const double gj = ags[l].gain;
                    beaten = gj > ag->gain || (gj == ag->gain && j < ag->id);
                }
            }
            if (!beaten) {
                sl->winners[n_win++] = sl->contenders[q];
            }
        }
        if (n_win == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "negotiation livelock: no winner among "
                            "undecided agents");
            return -1;
        }
        for (npy_intp q = 0; q < n_win; q++) {
            SlotAgent *ag = &ags[sl->winners[q]];
            if (record_commit(sl->table, sl->commit_rounds, ag, sl->k, c,
                              rnd) < 0) {
                return -1;
            }
            ag->standing = ag->undecided = 0;
            sl->messages += degree(win, ag->id);
            deg_u -= degree(win, ag->id);
        }
        sl->broadcasts += n_win;
        sl->rounds++;
        undecided -= n_win;

        /* UPD: in ascending winner order, each undecided neighbour and the
         * winner itself fold the committed energy into their views; the
         * neighbours then invalidate what it touched. */
        for (npy_intp q = 0; q < n_win; q++) {
            const SlotAgent *w = &ags[sl->winners[q]];
            const double *vals = w->add + w->policy * w->t;
            for (npy_intp e = win->nbr_ptr[w->id];
                 e < win->nbr_ptr[w->id + 1]; e++) {
                const npy_intp j = win->nbr_idx[e];
                const npy_intp l = sl->loc[j];
                if (l >= 0 && ags[l].undecided) {
                    fold_block(win->views + j * S * m, m, w->rows, w->R,
                               w->cols, w->t, vals);
                    note_commit(&ags[l], w, vals);
                }
            }
            fold_block(win->views + w->id * S * m, m, w->rows, w->R, w->cols,
                       w->t, vals);
        }
    }
    return 0;
}

static PyObject *
fastpath_negotiate_slot(PyObject *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "negotiate_slot expects 6 arguments");
        return NULL;
    }
    Window win;
    if (parse_window(args[0], &win) < 0) {
        return NULL;
    }
    Slot sl = {.win = &win, .table = args[4], .commit_rounds = args[5]};
    const npy_intp q = PyLong_AsSsize_t(args[1]);
    if (q == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (q < 0 || q >= win.W) {
        PyErr_SetString(PyExc_IndexError,
                        "negotiate_slot: window slot out of range");
        return NULL;
    }
    sl.k = win.slots[q];
    PyObject *active = args[2], *groups = args[3];
    if (!PyList_Check(active) || !PyList_Check(groups)
        || !PyDict_Check(sl.table) || !PyList_Check(sl.commit_rounds)) {
        PyErr_SetString(PyExc_TypeError,
                        "negotiate_slot: active, groups and commit_rounds "
                        "must be lists and table a dict");
        return NULL;
    }
    const npy_intp A = sl.A = PyList_GET_SIZE(active);
    if (PyList_GET_SIZE(groups) != A) {
        PyErr_SetString(PyExc_ValueError,
                        "negotiate_slot: active and groups differ in length");
        return NULL;
    }
    const npy_intp n = win.n, S = win.S;

    /* One workspace for the whole slot: agents, their row lists and row
     * masks, the charger -> agent map, and the contender/winner lists. */
    const size_t bytes = (size_t)A * sizeof(SlotAgent)
                         + (size_t)A * S * sizeof(npy_intp)
                         + (size_t)(n + 2 * A) * sizeof(npy_intp)
                         + (size_t)A * 2 * S;
    char *work = PyMem_Malloc(bytes > 0 ? bytes : 1);
    if (work == NULL) {
        return PyErr_NoMemory();
    }
    sl.ags = (SlotAgent *)work;
    npy_intp *rows_ws = (npy_intp *)(sl.ags + A);
    sl.loc = rows_ws + A * S;
    sl.contenders = sl.loc + n;
    sl.winners = sl.contenders + A;
    unsigned char *masks = (unsigned char *)(sl.winners + A);

    PyObject *result = NULL;
    for (npy_intp i = 0; i < n; i++) {
        sl.loc[i] = -1;
    }
    for (npy_intp a = 0; a < A; a++) {
        SlotAgent *ag = &sl.ags[a];
        ag->id = PyLong_AsSsize_t(PyList_GET_ITEM(active, a));
        ag->group = PyLong_AsSsize_t(PyList_GET_ITEM(groups, a));
        if (PyErr_Occurred()) {
            goto done;
        }
        if (ag->id < 0 || ag->id >= n || sl.loc[ag->id] >= 0
            || ag->group < 0 || ag->group >= win.G) {
            PyErr_SetString(PyExc_ValueError,
                            "negotiate_slot: charger or group out of range");
            goto done;
        }
        sl.loc[ag->id] = a;
        ag->rows = rows_ws + a * S;
        ag->inrow = masks + a * 2 * S;
        ag->dirty = ag->inrow + S;
        if (bind_agent(&win, ag, q) < 0) {
            goto done;
        }
    }
    for (npy_intp c = 0; c < win.num_colors; c++) {
        if (negotiate_color(&sl, c) < 0) {
            goto done;
        }
    }
    result = Py_BuildValue("(nnnnnn)", sl.messages, sl.broadcasts, sl.rounds,
                           sl.negotiations, sl.evals, sl.hits);
done:
    PyMem_Free(work);
    return result;
}

static PyMethodDef fastpath_methods[] = {
    {"fill", (PyCFunction)(void (*)(void))fastpath_fill, METH_FASTCALL,
     "Refresh dirty rows of the clipped-utility difference tensor."},
    {"finish", (PyCFunction)(void (*)(void))fastpath_finish, METH_FASTCALL,
     "Column-sum per-row gains and return (best_policy, best_total)."},
    {"fold", (PyCFunction)(void (*)(void))fastpath_fold, METH_FASTCALL,
     "Scatter-add committed energy into stacked receiver views."},
    {"negotiate_slot", (PyCFunction)(void (*)(void))fastpath_negotiate_slot,
     METH_FASTCALL,
     "Run every colour's synchronous negotiation of one slot."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastpath_module = {
    PyModuleDef_HEAD_INIT, "_fastpath",
    "C fast path for the linear-bounded gain kernels.", -1,
    fastpath_methods,
};

/* Bind np.matmul's float64 loop ("dd->d") from the ufunc's public type
 * table; ImportError if there is none. */
static int
bind_matmul(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    PyObject *matmul = numpy ? PyObject_GetAttrString(numpy, "matmul") : NULL;
    Py_XDECREF(numpy);
    if (matmul == NULL) {
        return -1;
    }
    if (PyObject_TypeCheck(matmul, &PyUFunc_Type)) {
        const PyUFuncObject *uf = (const PyUFuncObject *)matmul;
        for (int i = 0; i < uf->ntypes && matmul_dd == NULL; i++) {
            const char *types = uf->types + i * uf->nargs;
            if (uf->nargs == 3 && types[0] == NPY_DOUBLE
                && types[1] == NPY_DOUBLE && types[2] == NPY_DOUBLE) {
                matmul_dd = uf->functions[i];
                matmul_dd_data = uf->data[i];
            }
        }
    }
    if (matmul_dd == NULL) {
        Py_DECREF(matmul);
        PyErr_SetString(PyExc_ImportError,
                        "numpy.matmul has no float64 (dd->d) loop");
        return -1;
    }
    /* The ufunc owns the loop: its reference is kept for good. */
    return 0;
}

PyMODINIT_FUNC
PyInit__fastpath(void)
{
    import_array();
    import_umath();
    if (bind_matmul() < 0) {
        return NULL;
    }
    return PyModule_Create(&fastpath_module);
}
