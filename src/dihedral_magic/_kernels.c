/* Compiled search kernel: the C twin of _kernels_py.run_search.
 *
 * Same contract, node accounting and per-position plan as the pure
 * kernel (_kernels_py._plan): each position knows whether it ends a row
 * or a column, its left and upper neighbour (slot N is an empty line),
 * its candidate cut and its anchor.  Each position keeps its row's and
 * its column's state so far: a product index in linear mode (p x along
 * the row, x q up the column, which reads bottom to top), a cell-set
 * mask in orderable mode, whose reachable products are computed when the
 * line ends.  The free elements are a mask walked lowest bit first, one
 * node per candidate.  The pure kernel's bulk count, peek and memo only
 * save Python calls and change no count, so they have no C twin.
 *
 * Element indices are rotations 0..l-1 and reflections l..2l-1, and
 * every set of them is a 64-bit mask, so the group order 2l is limited
 * to 64: search.HARD_CAP keeps every search within that, and run_search
 * refuses l > 32 itself.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_CELLS 64

typedef struct {
    uint64_t cut;      /* candidates allowed here before free is applied */
    int row_end, col_end;
    int left, up, anc; /* neighbours (N: an empty line); anchor or -1 */
} Pos;

typedef struct {
    int l, N, linear, count_all, status, have_found;
    long long budget, nodes, count;
    uint64_t full; /* the l rotation bits */
    Pos plan[MAX_CELLS];
    uint64_t rowv[MAX_CELLS + 1], colv[MAX_CELLS + 1]; /* slot N: empty */
    int grid[MAX_CELLS], found[MAX_CELLS];
} Ctx;

/* Index of the product x y: r^a s^f r^b s^g = r^(a + (-1)^f b) s^(f+g). */
static int mul(int l, int x, int y)
{
    int f = x >= l, g = y >= l, e;
    if (f)
        x -= l;
    if (g)
        y -= l;
    e = f ? x - y + l : x + y;
    if (e >= l)
        e -= l;
    return f != g ? e + l : e;
}

/* Exponent mask times r^a (0 <= a <= l): every e becomes e + a mod l. */
static uint64_t shift(const Ctx *c, uint64_t mask, int a)
{
    return ((mask << a) | (mask >> (c->l - a))) & c->full;
}

/* Products reachable by some ordering of the cell set `cells`: with t = 0
 * reflections the product is fixed; with t >= 1, rotation exponents take
 * either sign and exactly ceil(t/2) reflection exponents take +.
 * by_plus[j]: sums with j reflections signed +. */
static uint64_t reachable_mask(const Ctx *c, uint64_t cells)
{
    uint64_t by_plus[33], rots = cells & c->full, refs = cells >> c->l, mask;
    int t = 0, e = 0, a, j;
    by_plus[0] = 1;
    for (; rots; rots &= rots - 1) {
        a = __builtin_ctzll(rots);
        e += a;
        by_plus[0] = shift(c, by_plus[0], a) | shift(c, by_plus[0], c->l - a);
    }
    if (!refs)
        return (uint64_t)1 << e % c->l;
    for (; refs; refs &= refs - 1) {
        a = __builtin_ctzll(refs);
        by_plus[++t] = 0;
        for (j = t; j > 0; j--)
            by_plus[j] = shift(c, by_plus[j], c->l - a)
                         | shift(c, by_plus[j - 1], a);
        by_plus[0] = shift(c, by_plus[0], c->l - a);
    }
    mask = by_plus[(t + 1) / 2];
    return t & 1 ? mask << c->l : mask;
}

/* Intersect *acc (0 before the first line) with mask; 0 if now empty. */
static int meet(uint64_t *acc, uint64_t mask)
{
    *acc = *acc ? *acc & mask : mask;
    return *acc != 0;
}

static int dfs(Ctx *c, int t, uint64_t rho, uint64_t sigma, uint64_t free)
{
    const Pos *p = &c->plan[t];
    uint64_t cand, b, row, col, nrho, nsigma;
    int x;
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
    cand = free & p->cut;
    if (p->anc >= 0) /* elements above the anchor's */
        cand &= ~(((uint64_t)2 << c->grid[p->anc]) - 1);
    for (; cand; cand ^= b) {
        b = cand & -cand;
        x = __builtin_ctzll(cand);
        if (++c->nodes > c->budget) {
            c->status = 2;
            return 1;
        }
        if (c->linear) {
            row = mul(c->l, c->rowv[p->left], x);
            col = mul(c->l, x, c->colv[p->up]);
        } else {
            row = c->rowv[p->left] | b;
            col = c->colv[p->up] | b;
        }
        nrho = rho;
        nsigma = sigma;
        if (p->row_end && !meet(&nrho, c->linear ? (uint64_t)1 << row
                                                 : reachable_mask(c, row)))
            continue;
        if (p->col_end && !meet(&nsigma, c->linear ? (uint64_t)1 << col
                                                   : reachable_mask(c, col)))
            continue;
        c->grid[t] = x;
        c->rowv[t] = row;
        c->colv[t] = col;
        if (dfs(c, t + 1, nrho, nsigma, free ^ b))
            return 1;
    }
    return 0;
}

static PyObject *run_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    int l, m, n, k, linear, symmetry, count_all, per, t;
    long long budget;
    Ctx c;
    Pos *p;
    PyObject *found, *x;
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
    per = m * n;
    c.N = per * k;
    c.linear = linear;
    c.count_all = count_all;
    c.budget = budget;
    c.status = 1;
    c.full = ((uint64_t)1 << l) - 1;
    for (t = 0; t < c.N; t++) {
        p = &c.plan[t];
        p->row_end = t % n == n - 1;
        p->col_end = t % per / n == m - 1;
        p->left = t % n ? t - 1 : c.N;
        p->up = t % per / n ? t - n : c.N;
        p->cut = t == 0 && symmetry && !linear ? 1 : ~(uint64_t)0;
        p->anc = symmetry && t >= per && t % per == 0 ? t - per : -1;
    }
    dfs(&c, 0, 0, 0, ~(uint64_t)0 >> (64 - 2 * l));
    if (c.have_found) {
        if (!(found = PyList_New(c.N)))
            return NULL;
        for (t = 0; t < c.N; t++) {
            if (!(x = PyLong_FromLong(c.found[t]))) {
                Py_DECREF(found);
                return NULL;
            }
            PyList_SET_ITEM(found, t, x);
        }
    } else {
        found = Py_NewRef(Py_None);
    }
    return Py_BuildValue("iLLN", c.status, c.nodes, c.count, found);
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
