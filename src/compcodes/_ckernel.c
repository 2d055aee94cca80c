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

static PyObject *
full_signature(PyObject *Py_UNUSED(module), PyObject *arg)
{
    Py_buffer view;
    int pref[MAX_N + 1]; /* pref[i]: ones among the first i bits */

    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *bits = view.buf;
    Py_ssize_t n = view.len;
    if (n < 1 || n > MAX_N) {
        PyBuffer_Release(&view);
        return PyErr_Format(PyExc_ValueError,
                            "length must be in [1, %d], got %zd", MAX_N, n);
    }
    pref[0] = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (bits[i] > 1) {
            PyBuffer_Release(&view);
            PyErr_SetString(PyExc_ValueError,
                            "bits must contain only 0 and 1 byte values");
            return NULL;
        }
        pref[i + 1] = pref[i] + bits[i];
    }
    PyBuffer_Release(&view);

    Py_ssize_t out_len = n * (n + 3) / 2;
    PyObject *sig = PyBytes_FromStringAndSize(NULL, out_len);
    if (sig == NULL)
        return NULL;
    unsigned char *out = (unsigned char *)PyBytes_AS_STRING(sig);
    memset(out, 0, out_len);
    /* class k occupies k+1 bytes, one per window weight w = 0..k */
    Py_ssize_t base = 0;
    for (Py_ssize_t k = 1; k <= n; k++) {
        for (Py_ssize_t j = 0; j + k <= n; j++)
            out[base + pref[j + k] - pref[j]]++;
        base += k + 1;
    }
    return sig;
}

static PyMethodDef methods[] = {
    {"full_signature", full_signature, METH_O,
     "Signature of a 0/1 byte string; counts of window weights per length."},
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
