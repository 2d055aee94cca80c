/* Compiled kernel: canonical readout signatures.
 *
 * Byte-for-byte identical output to compcodes._pykernel, which documents
 * the layout and is the reference the tests compare this module against.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* window counts are stored in single bytes */
#define MAX_N 255

static int
check_length(Py_ssize_t n)
{
    if (n < 1 || n > MAX_N) {
        PyErr_Format(PyExc_ValueError,
                     "length must be in [1, %d], got %zd", MAX_N, n);
        return -1;
    }
    return 0;
}

/* The class bound top_arg into *top: n for None, else an index in
 * [0, n]; -1 with an error set otherwise. */
static int
check_top(PyObject *top_arg, Py_ssize_t n, Py_ssize_t *top)
{
    if (top_arg == Py_None) {
        *top = n;
        return 0;
    }
    *top = PyNumber_AsSsize_t(top_arg, NULL);
    if (*top == -1 && PyErr_Occurred())
        return -1;
    if (*top < 0 || *top > n) {
        PyErr_Format(PyExc_ValueError,
                     "class bound must be in [0, %zd], got %R", n, top_arg);
        return -1;
    }
    return 0;
}

/* The lower class bound bottom_arg into *bottom: 1 for None, else an
 * index in [1, top + 1] (top + 1 is the empty range); -1 with an error
 * set otherwise. */
static int
check_bottom(PyObject *bottom_arg, Py_ssize_t top, Py_ssize_t *bottom)
{
    if (bottom_arg == Py_None) {
        *bottom = 1;
        return 0;
    }
    *bottom = PyNumber_AsSsize_t(bottom_arg, NULL);
    if (*bottom == -1 && PyErr_Occurred())
        return -1;
    if (*bottom < 1 || *bottom > top + 1) {
        PyErr_Format(PyExc_ValueError,
                     "lower class bound must be in [1, %zd], got %R",
                     top + 1, bottom_arg);
        return -1;
    }
    return 0;
}

/* Bytes of classes 1..k, the offset of class k + 1. */
static Py_ssize_t
prefix_size(Py_ssize_t k)
{
    return k * (k + 3) / 2;
}

/* Write the signature bytes of classes bottom..top of the n bits at bits
 * to out; -1 with ValueError set if a byte is not 0 or 1. */
static int
sign(const unsigned char *bits, Py_ssize_t n, Py_ssize_t bottom,
     Py_ssize_t top, unsigned char *out)
{
    int pref[MAX_N + 1]; /* pref[i]: ones among the first i bits */

    pref[0] = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (bits[i] > 1) {
            PyErr_SetString(PyExc_ValueError,
                            "bits must contain only 0 and 1 byte values");
            return -1;
        }
        pref[i + 1] = pref[i] + bits[i];
    }
    memset(out, 0, prefix_size(top) - prefix_size(bottom - 1));
    /* class k occupies k+1 bytes, one per window weight w = 0..k */
    Py_ssize_t base = 0;
    for (Py_ssize_t k = bottom; k <= top; k++) {
        for (Py_ssize_t j = 0; j + k <= n; j++)
            out[base + pref[j + k] - pref[j]]++;
        base += k + 1;
    }
    return 0;
}

static PyObject *
full_signature(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *arg, *top_arg = Py_None;
    Py_buffer view;
    Py_ssize_t top;
    PyObject *sig = NULL;

    if (!PyArg_ParseTuple(args, "O|O:full_signature", &arg, &top_arg)
        || PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    Py_ssize_t n = view.len;
    if (check_length(n) == 0 && check_top(top_arg, n, &top) == 0)
        sig = PyBytes_FromStringAndSize(NULL, prefix_size(top));
    if (sig != NULL
        && sign(view.buf, n, 1, top, (unsigned char *)PyBytes_AS_STRING(sig)) < 0)
        Py_CLEAR(sig);
    PyBuffer_Release(&view);
    return sig;
}

static PyObject *
signatures(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_buffer view;
    Py_ssize_t n, top, bottom;
    PyObject *top_arg = Py_None, *bottom_arg = Py_None;
    PyObject *sigs = NULL;

    if (!PyArg_ParseTuple(args, "y*n|OO:signatures", &view, &n, &top_arg,
                          &bottom_arg))
        return NULL;
    if (check_length(n) < 0)
        goto done;
    if (view.len % n) {
        PyErr_Format(PyExc_ValueError,
                     "buffer of %zd bytes is not a whole number of rows "
                     "of length %zd", view.len, n);
        goto done;
    }
    if (check_top(top_arg, n, &top) < 0
        || check_bottom(bottom_arg, top, &bottom) < 0)
        goto done;
    Py_ssize_t size = prefix_size(top) - prefix_size(bottom - 1);
    Py_ssize_t rows = view.len / n;
    sigs = PyList_New(rows);
    if (sigs == NULL)
        goto done;
    const unsigned char *bits = view.buf;
    for (Py_ssize_t r = 0; r < rows; r++) {
        PyObject *sig = PyBytes_FromStringAndSize(NULL, size);
        if (sig == NULL) {
            Py_CLEAR(sigs);
            goto done;
        }
        PyList_SET_ITEM(sigs, r, sig);
        if (sign(bits + r * n, n, bottom, top,
                 (unsigned char *)PyBytes_AS_STRING(sig)) < 0) {
            Py_CLEAR(sigs);
            goto done;
        }
    }
done:
    PyBuffer_Release(&view);
    return sigs;
}

static PyMethodDef methods[] = {
    {"full_signature", full_signature, METH_VARARGS,
     "Signature of a 0/1 byte string; counts of window weights per length.\n"
     "With top, only classes 1..top: the first top(top+3)/2 bytes."},
    {"signatures", signatures, METH_VARARGS,
     "full_signature of each length-n row of one concatenated 0/1 buffer.\n"
     "With top and bottom, only classes bottom..top (by default 1..n)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernel",
    .m_doc = "Compiled kernel: canonical readout signatures.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BACKEND", "compiled") < 0
        || PyModule_AddIntConstant(module, "MAX_N", MAX_N) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
