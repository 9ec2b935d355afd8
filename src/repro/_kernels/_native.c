/* Native kernels for the engine's innermost scalar loops.
 *
 * Each function here is the compiled twin of one function in
 * repro/_kernels/_pure.py and must stay byte-identical to it: same
 * match/visit order, same dict insertion order, same overflow timing,
 * same Python object semantics (tuple concat, membership tests).
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

/* PyFloat_AsDouble with the exact-float unbox inlined; scores are
 * floats except when user code passed something odd. */
static inline double
as_double(PyObject *obj)
{
    if (PyFloat_CheckExact(obj))
        return PyFloat_AS_DOUBLE(obj);
    return PyFloat_AsDouble(obj);
}

/* ------------------------------------------------------------------ */
/* bfs_expand                                                         */
/* ------------------------------------------------------------------ */

/* Visit arr[start:end]; first-occurrence ids go into distances (at
 * depth_obj) and next_frontier.  Returns 0 on success. */
static int
expand_slice(const int64_t *arr, int64_t start, int64_t end,
             PyObject *distances, PyObject *depth_obj, PyObject *next_frontier)
{
    for (int64_t j = start; j < end; j++) {
        PyObject *key = PyLong_FromLongLong((long long)arr[j]);
        if (key == NULL)
            return -1;
        int present = PyDict_Contains(distances, key);
        if (present < 0) {
            Py_DECREF(key);
            return -1;
        }
        if (!present) {
            if (PyDict_SetItem(distances, key, depth_obj) < 0 ||
                PyList_Append(next_frontier, key) < 0) {
                Py_DECREF(key);
                return -1;
            }
        }
        Py_DECREF(key);
    }
    return 0;
}

static PyObject *
kernel_bfs_expand(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    if (check_arity("bfs_expand", nargs, 7) < 0)
        return NULL;
    PyObject *frontier = args[0];
    PyObject *out_indptr_obj = args[1], *out_objects_obj = args[2];
    PyObject *in_indptr_obj = args[3], *in_subjects_obj = args[4];
    PyObject *distances = args[5], *depth_obj = args[6];
    if (check_dict("distances", distances) < 0)
        return NULL;

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

    PyObject *next_frontier = NULL;
    PyObject *fast = PySequence_Fast(frontier, "frontier must be a sequence");
    if (fast == NULL)
        goto done;
    next_frontier = PyList_New(0);
    if (next_frontier == NULL)
        goto done;

    Py_ssize_t n_frontier = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    Py_ssize_t out_nodes = out_indptr.len - 1;
    Py_ssize_t in_nodes = in_indptr.len - 1;
    for (Py_ssize_t i = 0; i < n_frontier; i++) {
        long long node = PyLong_AsLongLong(items[i]);
        if (node == -1 && PyErr_Occurred())
            goto fail;
        if (node < 0 || node >= out_nodes || node >= in_nodes) {
            PyErr_Format(PyExc_IndexError,
                         "frontier node id %lld out of range", node);
            goto fail;
        }
        if (expand_slice(out_objects.data, out_indptr.data[node],
                         out_indptr.data[node + 1], distances, depth_obj,
                         next_frontier) < 0)
            goto fail;
        if (expand_slice(in_subjects.data, in_indptr.data[node],
                         in_indptr.data[node + 1], distances, depth_obj,
                         next_frontier) < 0)
            goto fail;
    }
    goto done;

fail:
    Py_CLEAR(next_frontier);
done:
    Py_XDECREF(fast);
    i64_release(&out_indptr);
    i64_release(&out_objects);
    i64_release(&in_indptr);
    i64_release(&in_subjects);
    return next_frontier;
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
/* TopKThreshold                                                      */
/* ------------------------------------------------------------------ */

/* A bounded min-heap of (score, answer) compared by score only.  The
 * pure twin keeps a (score, answer)-tuple heapq, whose ties compare the
 * answer objects; comparing scores only is answer-equivalent because
 * the multiset of live scores — the only thing threshold() exposes —
 * is invariant under which of two score-tied entries gets evicted (see
 * docs/native-kernels.md for the full argument).  Staleness is the
 * credit-mismatch predicate: an entry is live iff credit[answer] holds
 * exactly its score; per-answer scores strictly increase, so superseded
 * and evicted entries can never be mistaken for live ones. */

typedef struct {
    PyObject_HEAD
    Py_ssize_t k_prime;
    Py_ssize_t size;
    Py_ssize_t capacity;
    double *scores;
    PyObject **answers;
    PyObject *credit; /* dict: answer -> float (its live score) */
} TopKObject;

static int
topk_reserve(TopKObject *self)
{
    if (self->size < self->capacity)
        return 0;
    Py_ssize_t capacity = self->capacity ? self->capacity * 2 : 64;
    double *scores = PyMem_Realloc(self->scores, capacity * sizeof(double));
    if (scores == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->scores = scores;
    PyObject **answers =
        PyMem_Realloc(self->answers, capacity * sizeof(PyObject *));
    if (answers == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->answers = answers;
    self->capacity = capacity;
    return 0;
}

/* Append (score, answer) and bubble it up.  Steals no reference; the
 * caller's answer is increfed here. */
static int
topk_push(TopKObject *self, double score, PyObject *answer)
{
    if (topk_reserve(self) < 0)
        return -1;
    Py_ssize_t pos = self->size++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (self->scores[parent] <= score)
            break;
        self->scores[pos] = self->scores[parent];
        self->answers[pos] = self->answers[parent];
        pos = parent;
    }
    self->scores[pos] = score;
    Py_INCREF(answer);
    self->answers[pos] = answer;
    return 0;
}

/* Remove the root; returns the owned answer reference of the removed
 * entry.  The heap must be non-empty. */
static PyObject *
topk_pop(TopKObject *self)
{
    PyObject *popped = self->answers[0];
    Py_ssize_t size = --self->size;
    if (size == 0)
        return popped;
    double score = self->scores[size];
    PyObject *answer = self->answers[size];
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && self->scores[child + 1] < self->scores[child])
            child += 1;
        if (score <= self->scores[child])
            break;
        self->scores[pos] = self->scores[child];
        self->answers[pos] = self->answers[child];
        pos = child;
    }
    self->scores[pos] = score;
    self->answers[pos] = answer;
    return popped;
}

/* Drop stale roots (credit missing or holding a different score). */
static int
topk_prune(TopKObject *self)
{
    while (self->size) {
        PyObject *credited =
            PyDict_GetItemWithError(self->credit, self->answers[0]);
        if (credited == NULL) {
            if (PyErr_Occurred())
                return -1;
        } else {
            double live = as_double(credited);
            if (live == -1.0 && PyErr_Occurred())
                return -1;
            if (live == self->scores[0])
                break;
        }
        Py_DECREF(topk_pop(self));
    }
    return 0;
}

static PyObject *
topk_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    Py_ssize_t k_prime;
    static char *keywords[] = {"k_prime", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "n:TopKThreshold",
                                     keywords, &k_prime))
        return NULL;
    TopKObject *self = (TopKObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->k_prime = k_prime;
    self->size = 0;
    self->capacity = 0;
    self->scores = NULL;
    self->answers = NULL;
    self->credit = PyDict_New();
    if (self->credit == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
topk_dealloc(TopKObject *self)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_DECREF(self->answers[i]);
    PyMem_Free(self->scores);
    PyMem_Free(self->answers);
    Py_XDECREF(self->credit);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
topk_note(TopKObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_arity("note", nargs, 2) < 0)
        return NULL;
    PyObject *answer = args[0], *score_obj = args[1];
    double score = as_double(score_obj);
    if (score == -1.0 && PyErr_Occurred())
        return NULL;

    PyObject *credited = PyDict_GetItemWithError(self->credit, answer);
    if (credited == NULL) {
        if (PyErr_Occurred())
            return NULL;
        if (PyDict_GET_SIZE(self->credit) >= self->k_prime) {
            /* Full: admit only past the current k'-th best, evicting
             * that minimum.  (The old entry of a superseded answer goes
             * stale automatically: its credit no longer matches.) */
            if (topk_prune(self) < 0)
                return NULL;
            if (self->size && score <= self->scores[0])
                Py_RETURN_NONE;
            if (self->size == 0) {
                PyErr_SetString(PyExc_IndexError, "pop from an empty heap");
                return NULL;
            }
            PyObject *evicted = topk_pop(self);
            int failed = PyDict_DelItem(self->credit, evicted) < 0;
            Py_DECREF(evicted);
            if (failed)
                return NULL;
        }
    }
    if (PyDict_SetItem(self->credit, answer, score_obj) < 0)
        return NULL;
    if (topk_push(self, score, answer) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
topk_threshold(TopKObject *self, PyObject *Py_UNUSED(ignored))
{
    if (PyDict_GET_SIZE(self->credit) < self->k_prime)
        Py_RETURN_NONE;
    if (topk_prune(self) < 0)
        return NULL;
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    return PyFloat_FromDouble(self->scores[0]);
}

static Py_ssize_t
topk_length(TopKObject *self)
{
    return PyDict_GET_SIZE(self->credit);
}

static PyMethodDef topk_methods[] = {
    {"note", (PyCFunction)(void (*)(void))topk_note, METH_FASTCALL,
     "Record an answer's improved score (scores only increase)."},
    {"threshold", (PyCFunction)topk_threshold, METH_NOARGS,
     "Score of the current k'-th best answer (None if too few)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods topk_as_sequence = {
    .sq_length = (lenfunc)topk_length,
};

static PyTypeObject TopKType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels._native.TopKThreshold",
    .tp_basicsize = sizeof(TopKObject),
    .tp_dealloc = (destructor)topk_dealloc,
    .tp_as_sequence = &topk_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Bounded min-heap of the current top-k' per-answer scores.",
    .tp_methods = topk_methods,
    .tp_new = topk_new,
};

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"bfs_expand", (PyCFunction)(void (*)(void))kernel_bfs_expand,
     METH_FASTCALL,
     "Expand one BFS depth over mapped CSR columns, in place."},
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
    .m_doc = "Native kernels for the lattice and join hot paths.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyType_Ready(&TopKType) < 0 ||
        PyModule_AddObjectRef(module, "TopKThreshold",
                              (PyObject *)&TopKType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
