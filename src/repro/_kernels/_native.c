/* Native kernels for the engine's innermost scalar loops.
 *
 * Each function here is the compiled twin of one function in
 * repro/_kernels/_pure.py and must stay byte-identical to it: same
 * match/visit order, same overflow timing, same Python object
 * semantics (tuple concat, membership tests).
 * tests/test_native_kernels.py pins every pair.
 *
 * Int64 columns arrive as C-contiguous read-only buffers (numpy arrays
 * or mmap-backed views); row data arrives as the interpreter objects
 * the pure path loops over (lists of tuples, dict buckets, sets), so
 * the win is purely the removal of interpreter dispatch, not a data
 * layout change.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* int64 buffer access                                                */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_buffer view;
    const int64_t *data;
    Py_ssize_t len;
} I64Buffer;

static int
i64_acquire(PyObject *obj, I64Buffer *buffer)
{
    if (PyObject_GetBuffer(obj, &buffer->view, PyBUF_SIMPLE) < 0)
        return -1;
    if (buffer->view.len % (Py_ssize_t)sizeof(int64_t)) {
        PyBuffer_Release(&buffer->view);
        PyErr_SetString(PyExc_ValueError,
                        "expected a contiguous int64 buffer");
        return -1;
    }
    buffer->data = (const int64_t *)buffer->view.buf;
    buffer->len = buffer->view.len / (Py_ssize_t)sizeof(int64_t);
    return 0;
}

static void
i64_release(I64Buffer *buffer)
{
    PyBuffer_Release(&buffer->view);
}

/* All entry points use METH_FASTCALL: the kernels run thousands of
 * times per query on small inputs, where the argument-tuple pack and
 * PyArg_ParseTuple format scan are a visible fraction of the call. */

static int
check_arity(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs != expected) {
        PyErr_Format(PyExc_TypeError, "%s expected %zd arguments, got %zd",
                     name, expected, nargs);
        return -1;
    }
    return 0;
}

static int
check_dict(const char *name, PyObject *obj)
{
    if (!PyDict_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a dict", name);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* csr_neighbors                                                      */
/* ------------------------------------------------------------------ */

static int
append_slice(const int64_t *arr, int64_t start, int64_t end, PyObject *out)
{
    for (int64_t j = start; j < end; j++) {
        PyObject *value = PyLong_FromLongLong((long long)arr[j]);
        if (value == NULL)
            return -1;
        if (PyList_Append(out, value) < 0) {
            Py_DECREF(value);
            return -1;
        }
        Py_DECREF(value);
    }
    return 0;
}

static PyObject *
kernel_csr_neighbors(PyObject *Py_UNUSED(module), PyObject *const *args,
                     Py_ssize_t nargs)
{
    if (check_arity("csr_neighbors", nargs, 5) < 0)
        return NULL;
    long long node = PyLong_AsLongLong(args[0]);
    if (node == -1 && PyErr_Occurred())
        return NULL;
    PyObject *out_indptr_obj = args[1], *out_objects_obj = args[2];
    PyObject *in_indptr_obj = args[3], *in_subjects_obj = args[4];

    I64Buffer out_indptr, out_objects, in_indptr, in_subjects;
    if (i64_acquire(out_indptr_obj, &out_indptr) < 0)
        return NULL;
    if (i64_acquire(out_objects_obj, &out_objects) < 0) {
        i64_release(&out_indptr);
        return NULL;
    }
    if (i64_acquire(in_indptr_obj, &in_indptr) < 0) {
        i64_release(&out_indptr);
        i64_release(&out_objects);
        return NULL;
    }
    if (i64_acquire(in_subjects_obj, &in_subjects) < 0) {
        i64_release(&out_indptr);
        i64_release(&out_objects);
        i64_release(&in_indptr);
        return NULL;
    }

    PyObject *out = NULL;
    if (node < 0 || node >= out_indptr.len - 1 || node >= in_indptr.len - 1) {
        PyErr_Format(PyExc_IndexError, "node id %lld out of range", node);
        goto done;
    }
    out = PyList_New(0);
    if (out == NULL)
        goto done;
    if (append_slice(out_objects.data, out_indptr.data[node],
                     out_indptr.data[node + 1], out) < 0 ||
        append_slice(in_subjects.data, in_indptr.data[node],
                     in_indptr.data[node + 1], out) < 0)
        Py_CLEAR(out);

done:
    i64_release(&out_indptr);
    i64_release(&out_objects);
    i64_release(&in_indptr);
    i64_release(&in_subjects);
    return out;
}

/* ------------------------------------------------------------------ */
/* probe_tail                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
kernel_probe_tail(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    if (check_arity("probe_tail", nargs, 5) < 0)
        return NULL;
    PyObject *rows = args[0], *buckets = args[1];
    if (check_dict("buckets", buckets) < 0)
        return NULL;
    Py_ssize_t bound_col = PyLong_AsSsize_t(args[2]);
    if (bound_col == -1 && PyErr_Occurred())
        return NULL;
    int injective = PyObject_IsTrue(args[3]);
    if (injective < 0)
        return NULL;
    Py_ssize_t max_rows = PyLong_AsSsize_t(args[4]);
    if (max_rows == -1 && PyErr_Occurred())
        return NULL;

    PyObject *fast = PySequence_Fast(rows, "rows must be a sequence");
    if (fast == NULL)
        return NULL;

    Py_ssize_t n_rows = PySequence_Fast_GET_SIZE(fast);
    PyObject **row_items = PySequence_Fast_ITEMS(fast);

    /* Phase 1: probe every row's bucket once, remember the match tuples
     * (owned — a user __eq__ in the injective scan may mutate buckets,
     * and the pure loop's local binding keeps its tuple alive the same
     * way), and sum an output upper bound.  The tail is at most the
     * vectorization threshold (64 rows); larger inputs spill to the
     * heap rather than being rejected. */
    PyObject *matches_stack[64];
    PyObject **matches_by_row = matches_stack;
    if (n_rows > 64) {
        matches_by_row = PyMem_New(PyObject *, (size_t)n_rows);
        if (matches_by_row == NULL) {
            Py_DECREF(fast);
            return PyErr_NoMemory();
        }
    }
    Py_ssize_t upper = 0;
    Py_ssize_t n_probed = 0;
    PyObject *out = NULL;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *row = row_items[i];
        if (!PyTuple_Check(row) || bound_col >= PyTuple_GET_SIZE(row)) {
            PyErr_SetString(PyExc_TypeError,
                            "rows must be tuples covering bound_col");
            goto fail;
        }
        PyObject *matches = PyDict_GetItemWithError(
            buckets, PyTuple_GET_ITEM(row, bound_col));
        if (matches == NULL && PyErr_Occurred())
            goto fail;
        if (matches != NULL) {
            if (!PyTuple_Check(matches)) {
                PyErr_SetString(PyExc_TypeError,
                                "bucket values must be tuples");
                goto fail;
            }
            upper += PyTuple_GET_SIZE(matches);
            Py_INCREF(matches);
        }
        matches_by_row[i] = matches;
        n_probed = i + 1;
    }

    /* Phase 2: fill a pre-sized list — no per-output append calls.
     * The list briefly holds NULL slots beyond `used`; list_traverse
     * and list_dealloc both tolerate that, and the final Py_SET_SIZE
     * hides any slots the injective filter skipped. */
    out = PyList_New(upper);
    if (out == NULL)
        goto fail;
    Py_ssize_t used = 0;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *matches = matches_by_row[i];
        if (matches == NULL)
            continue;
        Py_ssize_t n_matches = PyTuple_GET_SIZE(matches);
        if (n_matches == 0)
            continue;
        PyObject *row = row_items[i];
        Py_ssize_t row_len = PyTuple_GET_SIZE(row);
        /* Mapped rows hold machine-sized ints, so the injective scan
         * can run over an int64 image of the row extracted once and
         * shared by every match — cells_known is computed lazily on the
         * first injective match (-1 pending, 0 mixed/wide, 1 all-int).
         * Any non-int or overflowing cell or value falls back to the
         * object scan, whose int==int semantics the fast path matches
         * exactly (bools are not CheckExact and take the fallback). */
        int64_t cells[64];
        int cells_known = -1;
        for (Py_ssize_t m = 0; m < n_matches; m++) {
            PyObject *value = PyTuple_GET_ITEM(matches, m);
            if (injective) {
                if (cells_known < 0) {
                    cells_known = row_len <= 64;
                    for (Py_ssize_t c = 0; cells_known && c < row_len;
                         c++) {
                        PyObject *cell = PyTuple_GET_ITEM(row, c);
                        if (!PyLong_CheckExact(cell)) {
                            cells_known = 0;
                            break;
                        }
                        int overflow = 0;
                        long long v =
                            PyLong_AsLongLongAndOverflow(cell, &overflow);
                        if (v == -1 && PyErr_Occurred())
                            goto fail;
                        if (overflow) {
                            cells_known = 0;
                            break;
                        }
                        cells[c] = v;
                    }
                }
                int present = 0;
                int scanned = 0;
                if (cells_known && PyLong_CheckExact(value)) {
                    int overflow = 0;
                    long long v =
                        PyLong_AsLongLongAndOverflow(value, &overflow);
                    if (v == -1 && PyErr_Occurred())
                        goto fail;
                    if (!overflow) {
                        scanned = 1;
                        for (Py_ssize_t c = 0; c < row_len; c++) {
                            if (cells[c] == v) {
                                present = 1;
                                break;
                            }
                        }
                    }
                }
                if (!scanned) {
                    /* Object scan with an identity check ahead of the
                     * rich-compare call: the interned engine reuses
                     * node objects, so equal cells are usually the
                     * same object. */
                    for (Py_ssize_t c = 0; c < row_len; c++) {
                        PyObject *cell = PyTuple_GET_ITEM(row, c);
                        if (cell == value) {
                            present = 1;
                            break;
                        }
                        present =
                            PyObject_RichCompareBool(cell, value, Py_EQ);
                        if (present)
                            break;
                    }
                }
                if (present < 0)
                    goto fail;
                if (present)
                    continue;
            }
            PyObject *extended = PyTuple_New(row_len + 1);
            if (extended == NULL)
                goto fail;
            for (Py_ssize_t c = 0; c < row_len; c++) {
                PyObject *cell = PyTuple_GET_ITEM(row, c);
                Py_INCREF(cell);
                PyTuple_SET_ITEM(extended, c, cell);
            }
            Py_INCREF(value);
            PyTuple_SET_ITEM(extended, row_len, value);
            PyList_SET_ITEM(out, used, extended);
            used++;
        }
        if (max_rows >= 0 && used > max_rows) {
            /* Overflow: the caller raises its documented error. */
            Py_SET_SIZE(out, used);
            Py_CLEAR(out);
            goto cleanup;
        }
    }
    Py_SET_SIZE(out, used);
    goto cleanup;

fail:
    /* list_dealloc Py_XDECREFs every slot, so NULL tails are fine. */
    Py_CLEAR(out);

cleanup:
    for (Py_ssize_t i = 0; i < n_probed; i++)
        Py_XDECREF(matches_by_row[i]);
    if (matches_by_row != matches_stack)
        PyMem_Free(matches_by_row);
    Py_DECREF(fast);
    if (out != NULL)
        return out;
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* filter_pairs                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
kernel_filter_pairs(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    if (check_arity("filter_pairs", nargs, 4) < 0)
        return NULL;
    PyObject *rows = args[0], *pairs = args[3];
    Py_ssize_t subject_col = PyLong_AsSsize_t(args[1]);
    if (subject_col == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t object_col = PyLong_AsSsize_t(args[2]);
    if (object_col == -1 && PyErr_Occurred())
        return NULL;

    PyObject *fast = PySequence_Fast(rows, "rows must be a sequence");
    if (fast == NULL)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL) {
        Py_DECREF(fast);
        return NULL;
    }

    Py_ssize_t n_rows = PySequence_Fast_GET_SIZE(fast);
    PyObject **row_items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        PyObject *row = row_items[i];
        if (!PyTuple_Check(row) || subject_col >= PyTuple_GET_SIZE(row) ||
            object_col >= PyTuple_GET_SIZE(row)) {
            PyErr_SetString(PyExc_TypeError,
                            "rows must be tuples covering both columns");
            goto fail;
        }
        PyObject *pair = PyTuple_Pack(2, PyTuple_GET_ITEM(row, subject_col),
                                      PyTuple_GET_ITEM(row, object_col));
        if (pair == NULL)
            goto fail;
        int present = PySet_Contains(pairs, pair);
        Py_DECREF(pair);
        if (present < 0)
            goto fail;
        if (present && PyList_Append(out, row) < 0)
            goto fail;
    }
    Py_DECREF(fast);
    return out;

fail:
    Py_DECREF(out);
    Py_DECREF(fast);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"csr_neighbors", (PyCFunction)(void (*)(void))kernel_csr_neighbors,
     METH_FASTCALL,
     "Undirected neighbor ids of one node, out slice then in slice."},
    {"probe_tail", (PyCFunction)(void (*)(void))kernel_probe_tail,
     METH_FASTCALL,
     "Scalar one-sided join-probe tail over dict buckets."},
    {"filter_pairs", (PyCFunction)(void (*)(void))kernel_filter_pairs,
     METH_FASTCALL,
     "Scalar both-endpoints-bound join filter over a pair set."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels._native",
    .m_doc = "Native kernels for the neighborhood and join hot paths.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
