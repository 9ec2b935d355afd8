/* Native kernel for the engine's one remaining scalar loop.
 *
 * csr_neighbors is the compiled twin of the function of the same name
 * in repro/_kernels/_pure.py and must stay byte-identical to it: same
 * visit order, same Python ints out.  tests/test_native_kernels.py pins
 * the pair.
 *
 * Int64 columns arrive as C-contiguous read-only buffers (numpy arrays
 * or mmap-backed views), so the win is purely the removal of
 * interpreter dispatch, not a data layout change.
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

/* The entry point uses METH_FASTCALL: the kernel runs thousands of
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
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"csr_neighbors", (PyCFunction)(void (*)(void))kernel_csr_neighbors,
     METH_FASTCALL,
     "Undirected neighbor ids of one node, out slice then in slice."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels._native",
    .m_doc = "Native kernel for the CSR neighbor list.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
