/* Optional C fast path for the linear-bounded gain kernels.
 *
 * The negotiation protocol and the offline TabularGreedy sweep evaluate
 * millions of tiny (R x P x t) marginal-gain tensors per run (R =
 * matched sample rows, P = policies, t = receivable tasks; all of order
 * 10).  At that size the arithmetic is trivial and the cost is per-call
 * NumPy dispatch, so the hot operations are provided here as single C
 * calls.  The negotiation (distributed.py) uses all five; the offline
 * sweep (offline/centralized.py) uses fill, finish and fold on its one
 * (S, m) energy state.
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
 *   fill_batch(jobs) -> None
 *     Run ``fill`` for a whole advertisement round in one call: ``jobs``
 *     is a list of 7-tuples, each holding one agent's ``fill`` argument
 *     vector.  Per-agent results are identical to per-agent ``fill``
 *     calls (agents touch disjoint tensors), this just amortizes the
 *     Python call overhead across the window's agents.
 *
 *   finish_batch(rgs, total_samples) -> list[(best_policy, best_total)]
 *     ``finish`` over a list of per-agent row-gain matrices.
 *
 * Numerical contract: every operation here is bit-for-bit identical to
 * the pure NumPy reference paths in distributed.py and centralized.py.  Element-wise ops
 * (add, divide, clip, subtract) are the same IEEE-754 double ops; the
 * column sum replicates NumPy's sequential row accumulation for an
 * axis-0 reduction with >= 2 columns; and the weighted sum over tasks —
 * whose BLAS-blocked ordering is not reproducible in portable C — is
 * deliberately left to NumPy (``np.matmul(tens, w, out=rg)`` in the
 * caller).  Compile with -ffp-contract=off so no FMA contraction changes
 * rounding; see _ckernel.py for the build and the fallback story.
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

/* Fixed scratch capacity; the Python side falls back to NumPy for
 * instances larger than this (never hit by the paper's scales). */
#define FP_MAX_DIM 512

/* Core of fill(); `args` is the 7-element argument vector.  Returns 0 on
 * success, -1 with a Python exception set on failure. */
static int
fill_impl(PyObject *const *args)
{
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
        return -1;
    }
    /* E and cols are read once per task column. */
    if (PyArray_NDIM(E) != 1 || PyArray_DIM(E, 0) != t
        || PyArray_NDIM(cols) != 1 || PyArray_DIM(cols, 0) != t) {
        PyErr_SetString(PyExc_ValueError,
                        "fill: E and cols need one entry per task column");
        return -1;
    }

    const double *view_d = (const double *)PyArray_DATA(view);
    double *tens_d = (double *)PyArray_DATA(tens);
    const npy_intp *rows_d = (const npy_intp *)PyArray_DATA(rows);
    const npy_intp *cols_d = (const npy_intp *)PyArray_DATA(cols);
    const double *add_d = (const double *)PyArray_DATA(add);
    const double *E_d = (const double *)PyArray_DATA(E);

    double ev[FP_MAX_DIM];   /* current energy per column */
    double base[FP_MAX_DIM]; /* min(e / E, 1) per column  */

    npy_intp n_refresh;
    PyObject **dirty_items = NULL;
    if (dirty == Py_None) {
        n_refresh = R;
    } else {
        if (!PyList_Check(dirty)) {
            PyErr_SetString(PyExc_TypeError, "fill: dirty must be list|None");
            return -1;
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
                    return -1;
                }
                PyErr_SetString(PyExc_IndexError, "fill: dirty out of range");
                return -1;
            }
        }
        const double *vrow = view_d + rows_d[r] * m;
        for (npy_intp j = 0; j < t; j++) {
            const double e = vrow[cols_d[j]];
            const double b = e / E_d[j];
            ev[j] = e;
            base[j] = b > 1.0 ? 1.0 : b;
        }
        double *trow = tens_d + r * P * t;
        for (npy_intp p = 0; p < P; p++) {
            const double *ap = add_d + p * t;
            double *tp = trow + p * t;
            for (npy_intp j = 0; j < t; j++) {
                double x = (ev[j] + ap[j]) / E_d[j];
                if (x > 1.0) {
                    x = 1.0;
                }
                tp[j] = x - base[j];
            }
        }
    }
    return 0;
}

static PyObject *
fastpath_fill(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fill expects 7 arguments");
        return NULL;
    }
    if (fill_impl(args) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
fastpath_fill_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "fill_batch expects 1 argument");
        return NULL;
    }
    PyObject *jobs = args[0];
    if (!PyList_Check(jobs)) {
        PyErr_SetString(PyExc_TypeError, "fill_batch: jobs must be a list");
        return NULL;
    }
    const Py_ssize_t n_jobs = PyList_GET_SIZE(jobs);
    PyObject **items = ((PyListObject *)jobs)->ob_item;
    for (Py_ssize_t b = 0; b < n_jobs; b++) {
        PyObject *job = items[b];
        if (!PyTuple_Check(job) || PyTuple_GET_SIZE(job) != 7) {
            PyErr_SetString(PyExc_TypeError,
                            "fill_batch: each job must be a 7-tuple");
            return NULL;
        }
        if (fill_impl(((PyTupleObject *)job)->ob_item) < 0) {
            return NULL;
        }
    }
    Py_RETURN_NONE;
}

/* Core of finish(); writes the winner through `best`/`best_v`.  Returns 0
 * on success, -1 with a Python exception set on failure. */
static int
finish_impl(PyArrayObject *rg, double total_samples,
            Py_ssize_t *best, double *best_v)
{
    const npy_intp R = PyArray_DIM(rg, 0);
    const npy_intp P = PyArray_DIM(rg, 1);
    if (P < 2 || P > FP_MAX_DIM) {
        /* P == 1 would take NumPy's pairwise (contiguous-axis) summation
         * path, which this sequential loop does not replicate; callers
         * only negotiate partitions with at least two policies. */
        PyErr_SetString(PyExc_ValueError, "finish: policy count out of range");
        return -1;
    }
    const double *rg_d = (const double *)PyArray_DATA(rg);

    /* NumPy's axis-0 reduction over a C-contiguous (R, P>=2) array is a
     * sequential row accumulation — replicated exactly here. */
    double total[FP_MAX_DIM];
    for (npy_intp p = 0; p < P; p++) {
        total[p] = 0.0;
    }
    for (npy_intp r = 0; r < R; r++) {
        const double *rgr = rg_d + r * P;
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
    *best = (Py_ssize_t)win;
    *best_v = win_v;
    return 0;
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
    Py_ssize_t best;
    double best_v;
    if (finish_impl((PyArrayObject *)args[0], total_samples,
                    &best, &best_v) < 0) {
        return NULL;
    }
    return Py_BuildValue("nd", best, best_v);
}

static PyObject *
fastpath_finish_batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "finish_batch expects 2 arguments");
        return NULL;
    }
    PyObject *rgs = args[0];
    if (!PyList_Check(rgs)) {
        PyErr_SetString(PyExc_TypeError, "finish_batch: rgs must be a list");
        return NULL;
    }
    double total_samples = PyFloat_AsDouble(args[1]);
    if (total_samples == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    const Py_ssize_t n_jobs = PyList_GET_SIZE(rgs);
    PyObject **items = ((PyListObject *)rgs)->ob_item;
    PyObject *out = PyList_New(n_jobs);
    if (out == NULL) {
        return NULL;
    }
    for (Py_ssize_t b = 0; b < n_jobs; b++) {
        Py_ssize_t best;
        double best_v;
        if (finish_impl((PyArrayObject *)items[b], total_samples,
                        &best, &best_v) < 0) {
            Py_DECREF(out);
            return NULL;
        }
        PyObject *pair = Py_BuildValue("nd", best, best_v);
        if (pair == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, b, pair);
    }
    return out;
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
    const npy_intp R = PyArray_DIM(rows, 0);
    const npy_intp t = PyArray_DIM(cols, 0);

    double *views_d = (double *)PyArray_DATA(views);
    const npy_intp *rows_d = (const npy_intp *)PyArray_DATA(rows);
    const npy_intp *cols_d = (const npy_intp *)PyArray_DATA(cols);
    const double *vals_d = (const double *)PyArray_DATA(vals);

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
        double *base_o = views_d + i * S * m;
        for (npy_intp r = 0; r < R; r++) {
            double *vrow = base_o + rows_d[r] * m;
            for (npy_intp j = 0; j < t; j++) {
                vrow[cols_d[j]] += vals_d[j];
            }
        }
    }
    Py_RETURN_NONE;
}

static PyMethodDef fastpath_methods[] = {
    {"fill", (PyCFunction)(void (*)(void))fastpath_fill, METH_FASTCALL,
     "Refresh dirty rows of the clipped-utility difference tensor."},
    {"finish", (PyCFunction)(void (*)(void))fastpath_finish, METH_FASTCALL,
     "Column-sum per-row gains and return (best_policy, best_total)."},
    {"fill_batch", (PyCFunction)(void (*)(void))fastpath_fill_batch,
     METH_FASTCALL, "Run fill for a list of per-agent argument tuples."},
    {"finish_batch", (PyCFunction)(void (*)(void))fastpath_finish_batch,
     METH_FASTCALL, "Run finish over a list of per-agent row-gain arrays."},
    {"fold", (PyCFunction)(void (*)(void))fastpath_fold, METH_FASTCALL,
     "Scatter-add committed energy into stacked receiver views."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastpath_module = {
    PyModuleDef_HEAD_INIT, "_fastpath",
    "C fast path for the linear-bounded gain kernels.", -1,
    fastpath_methods,
};

PyMODINIT_FUNC
PyInit__fastpath(void)
{
    import_array();
    return PyModule_Create(&fastpath_module);
}
