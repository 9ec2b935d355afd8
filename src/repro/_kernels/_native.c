/* Native kernel for the engine's one remaining scalar loop.
 *
 * csr_neighbors is the compiled twin of the function of the same name
 * in repro/_kernels/_pure.py and must stay byte-identical to it: same
 * visit order, same Python ints out.  tests/test_native_kernels.py pins
 * the pair.
 *
 * Integer columns arrive as C-contiguous read-only buffers (numpy
 * arrays or mmap-backed views) of int32 (what a snapshot stores) or
 * int64 (a snapshot written before its arrays were narrowed), so the
 * win is purely the removal of interpreter dispatch, not a data layout
 * change.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* int32 / int64 buffer access                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_buffer view;
    Py_ssize_t len;
} IntBuffer;

static int
int_acquire(PyObject *obj, IntBuffer *buffer)
{
    /* No PyBUF_FORMAT: asking for the format string costs more than the
     * lookup itself, and the exporter still reports its item size. */
    if (PyObject_GetBuffer(obj, &buffer->view, PyBUF_SIMPLE) < 0)
        return -1;
    Py_ssize_t itemsize = buffer->view.itemsize;
    if ((itemsize != 4 && itemsize != 8) || buffer->view.len % itemsize) {
        PyBuffer_Release(&buffer->view);
        PyErr_SetString(PyExc_ValueError,
                        "expected a contiguous int32 or int64 buffer");
        return -1;
    }
    buffer->len = buffer->view.len / itemsize;
    return 0;
}

static inline int64_t
int_at(const IntBuffer *buffer, int64_t index)
{
    if (buffer->view.itemsize == 4)
        return ((const int32_t *)buffer->view.buf)[index];
    return ((const int64_t *)buffer->view.buf)[index];
}

static void
int_release(IntBuffer *buffer)
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
append_slice(const IntBuffer *arr, int64_t start, int64_t end, PyObject *out)
{
    for (int64_t j = start; j < end; j++) {
        PyObject *value = PyLong_FromLongLong((long long)int_at(arr, j));
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

    IntBuffer out_indptr, out_objects, in_indptr, in_subjects;
    if (int_acquire(out_indptr_obj, &out_indptr) < 0)
        return NULL;
    if (int_acquire(out_objects_obj, &out_objects) < 0) {
        int_release(&out_indptr);
        return NULL;
    }
    if (int_acquire(in_indptr_obj, &in_indptr) < 0) {
        int_release(&out_indptr);
        int_release(&out_objects);
        return NULL;
    }
    if (int_acquire(in_subjects_obj, &in_subjects) < 0) {
        int_release(&out_indptr);
        int_release(&out_objects);
        int_release(&in_indptr);
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
    if (append_slice(&out_objects, int_at(&out_indptr, node),
                     int_at(&out_indptr, node + 1), out) < 0 ||
        append_slice(&in_subjects, int_at(&in_indptr, node),
                     int_at(&in_indptr, node + 1), out) < 0)
        Py_CLEAR(out);

done:
    int_release(&out_indptr);
    int_release(&out_objects);
    int_release(&in_indptr);
    int_release(&in_subjects);
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
