/* Compiled search kernel: the C twin of _kernels_py.run_search.
 *
 * Same contract and node accounting as the pure kernel.  Product sets
 * are 64-bit masks over element indices (rotations 0..l-1, reflections
 * l..2l-1), so the group order 2l is limited to 64; the backend
 * dispatcher sends larger groups to the pure kernel.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef struct {
    int l, G, m, n, per, N;
    int linear, count_all, fix_first, status, have_found;
    long long budget, nodes, count;
    uint64_t full; /* the l rotation bits */
    int *grid, *anchor, *found, *line;
    unsigned char *used;
} Ctx;

/* Exponent mask times r^a (0 <= a <= l): every e becomes e + a mod l. */
static uint64_t shift(const Ctx *c, uint64_t mask, int a)
{
    return ((mask << a) | (mask >> (c->l - a))) & c->full;
}

/* Index of the word's product, read left to right: each exponent enters
 * with sign (-1)^(reflections before it). */
static uint64_t word_mask(const Ctx *c, const int *v, int len)
{
    int e = 0, sign = 1, i;
    for (i = 0; i < len; i++) {
        if (v[i] < c->l) {
            e += sign * v[i];
        } else {
            e += sign * (v[i] - c->l);
            sign = -sign;
        }
    }
    e %= c->l;
    if (e < 0)
        e += c->l;
    return (uint64_t)1 << (sign > 0 ? e : c->l + e);
}

/* Products reachable by some ordering of the multiset v: with t >= 1
 * reflections, rotation exponents take either sign and exactly
 * ceil(t/2) reflection exponents take +.  by_plus[j]: sums with j
 * reflections signed +. */
static uint64_t reachable_mask(const Ctx *c, const int *v, int len)
{
    uint64_t by_plus[65], mask;
    int t = 0, i, j, b;
    by_plus[0] = 1;
    for (i = 0; i < len; i++)
        if (v[i] < c->l)
            by_plus[0] = shift(c, by_plus[0], v[i])
                         | shift(c, by_plus[0], c->l - v[i]);
    for (i = 0; i < len; i++) {
        if ((b = v[i] - c->l) < 0)
            continue;
        by_plus[++t] = 0;
        for (j = t; j > 0; j--)
            by_plus[j] = shift(c, by_plus[j], c->l - b)
                         | shift(c, by_plus[j - 1], b);
        by_plus[0] = shift(c, by_plus[0], c->l - b);
    }
    if (t == 0)
        return word_mask(c, v, len);
    mask = by_plus[(t + 1) / 2];
    return t & 1 ? mask << c->l : mask;
}

static uint64_t line_mask(const Ctx *c, const int *v, int len)
{
    return c->linear ? word_mask(c, v, len) : reachable_mask(c, v, len);
}

/* Intersect *acc (0 before the first line) with mask; 0 if now empty. */
static int meet(uint64_t *acc, uint64_t mask)
{
    *acc = *acc ? *acc & mask : mask;
    return *acc != 0;
}

static int check_lines(Ctx *c, int t, uint64_t *rho, uint64_t *sigma)
{
    int a = t / c->per, w = t % c->per;
    int i = w / c->n, j = w % c->n, base = a * c->per, q;
    if (j == c->n - 1
            && !meet(rho, line_mask(c, c->grid + base + i * c->n, c->n)))
        return 0;
    if (i == c->m - 1) {
        for (q = 0; q < c->m; q++) /* bottom-to-top */
            c->line[q] = c->grid[base + (c->m - 1 - q) * c->n + j];
        if (!meet(sigma, line_mask(c, c->line, c->m)))
            return 0;
    }
    return 1;
}

static int dfs(Ctx *c, int t, uint64_t rho, uint64_t sigma)
{
    int x, anc, stop;
    uint64_t nrho, nsigma;
    if (t == c->N) {
        c->count++;
        if (!c->have_found) {
            memcpy(c->found, c->grid, c->N * sizeof(int));
            c->have_found = 1;
        }
        if (!c->count_all) {
            c->status = 0;
            return 1;
        }
        return 0;
    }
    anc = c->anchor[t];
    for (x = 0; x < c->G; x++) {
        if (c->used[x] || (c->fix_first && t == 0 && x != 0)
                || (anc >= 0 && x <= c->grid[anc]))
            continue;
        if (++c->nodes > c->budget) {
            c->status = 2;
            return 1;
        }
        c->grid[t] = x;
        c->used[x] = 1;
        nrho = rho;
        nsigma = sigma;
        stop = check_lines(c, t, &nrho, &nsigma) && dfs(c, t + 1, nrho, nsigma);
        c->grid[t] = -1;
        c->used[x] = 0;
        if (stop)
            return 1;
    }
    return 0;
}

static PyObject *run_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    int l, m, n, k, linear, symmetry, count_all, a, t;
    long long budget;
    Ctx c;
    PyObject *found = NULL, *result = NULL;
    if (!PyArg_ParseTuple(args, "iiiipppL:run_search", &l, &m, &n, &k,
                          &linear, &symmetry, &count_all, &budget))
        return NULL;
    if (l < 1 || l > 32 || m < 1 || n < 1 || k < 1
            || (double)m * n * k > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled search kernel needs 2l <= 64 and m*n*k <= 64");
        return NULL;
    }
    memset(&c, 0, sizeof c);
    c.l = l;
    c.G = 2 * l;
    c.m = m;
    c.n = n;
    c.per = m * n;
    c.N = c.per * k;
    c.linear = linear;
    c.count_all = count_all;
    c.fix_first = symmetry && !linear;
    c.budget = budget;
    c.status = 1;
    c.full = ((uint64_t)1 << l) - 1;
    c.grid = PyMem_Malloc(c.N * sizeof(int));
    c.anchor = PyMem_Malloc(c.N * sizeof(int));
    c.found = PyMem_Malloc(c.N * sizeof(int));
    c.line = PyMem_Malloc(c.m * sizeof(int));
    c.used = PyMem_Calloc(c.G, 1);
    if (!c.grid || !c.anchor || !c.found || !c.line || !c.used) {
        PyErr_NoMemory();
        goto done;
    }
    for (t = 0; t < c.N; t++)
        c.grid[t] = c.anchor[t] = -1;
    if (symmetry)
        for (a = 1; a < k; a++)
            c.anchor[a * c.per] = (a - 1) * c.per;
    dfs(&c, 0, 0, 0);
    if (c.have_found) {
        if (!(found = PyList_New(c.N)))
            goto done;
        for (t = 0; t < c.N; t++)
            PyList_SET_ITEM(found, t, PyLong_FromLong(c.found[t]));
    } else {
        found = Py_NewRef(Py_None);
    }
    result = Py_BuildValue("iLLN", c.status, c.nodes, c.count, found);
done:
    PyMem_Free(c.grid);
    PyMem_Free(c.anchor);
    PyMem_Free(c.found);
    PyMem_Free(c.line);
    PyMem_Free(c.used);
    return result;
}

static PyMethodDef methods[] = {
    {"run_search", run_search, METH_VARARGS,
     "run_search(l, m, n, k, linear, symmetry, count_all, budget)\n"
     "-> (status, nodes, count, first_solution_or_None)"},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernels",
    .m_doc = "Compiled twin of _kernels_py.run_search.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
