/* The JSONL corpus format's hot loops in C (see tracemodel.py): one function
 * parses a line, the other prints a trace's samples.  Each either does its
 * job exactly or declines, and the caller then does it in Python, so no
 * output depends on whether this file could be built.  No call depends on
 * the locale, and neither calls printf or strtod.
 *
 * vmsight_parse_record() reads one line, JSON whitespace allowed at both
 * ends, and either accepts it or declines it; the caller parses a declined
 * line with Python's json.  It accepts only a JSON object with the seven
 * record keys, each once, in any order:
 *
 *     session_id                 string
 *     app_label                  string or null
 *     period_s, workload_level,
 *     performance,
 *     interference_level         number or null
 *     traces                     object of string -> array of numbers
 *
 * Every byte must be ASCII, and strings may hold no escape and no control
 * character.  A number is converted only where one IEEE operation gives
 * the correctly rounded value (Clinger, PLDI 1990): a decimal mantissa w
 * of at most 2^53 times 10^e with |e| <= 22, computed as w * 10^e or
 * w / 10^-e, or a zero mantissa.  Any other number, and any exponent
 * written with more than 4 digits, declines the line.  An integer token
 * "-0" gives +0.0, as Python's float(int("-0")) does; "-0.0" and "-0e0"
 * give -0.0.
 *
 * Outputs, valid when the line is accepted:
 *     spans[0], spans[1]   session_id as [start, end) offsets in the line
 *     spans[2], spans[3]   app_label the same way, or -1, -1 for null
 *     spans[4 + 4k ..]     trace k: its name's [start, end) in the line,
 *                          then its samples' [start, end) in samples[]
 *     nums[0..3]           period_s, workload_level, performance,
 *                          interference_level; NaN stands for null
 * samples has room for cap values and spans for 4 + 4 * max_traces; a line
 * that needs more is declined.  The return value is the number of traces,
 * or -1 when the line is declined.
 *
 * vmsight_format_samples() writes n samples, already rounded to 9
 * significant digits, as "[v0, v1, ...]": json.dumps's text of the list,
 * byte for byte as tracemodel._samples_text writes it.  A whole sample
 * (integral, below 1e16 in magnitude) is its integer digits and ".0", sign
 * kept, so -0.0 stays "-0.0"; any other is "%.9g"'s text.  That text is
 * printed from the decimal the sample came from, never rounded here
 * (Steele & White, PLDI 1990), and each is proved exact by one IEEE
 * operation, as the parser's numbers are: for the k with |k| <= 22 that
 * makes n = rint(|v| * 10^k) (or |v| / 10^-k) a 9-digit integer,
 * n / 10^k (or n * 10^-k), correctly rounded from exact operands, must
 * give |v| back.  Then |v| is the double nearest n * 10^-k, within half an
 * ulp of it and so far inside half a unit of the 9th digit, and "%.9g"
 * prints exactly n's digits.  A subnormal, a non-finite value and a sample
 * that fails the check decline the whole call; the caller then prints the
 * samples in Python.  out must have room for 2 + 32 * n bytes (a sample
 * takes at most 19, its separator 2).  The return value is the number of
 * bytes written, or -1 when the call is declined.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* 10^0 .. 10^22 are exact doubles (5^22 < 2^53) */
static const double P10[23] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* The helpers run once per byte or per number, and a call each cost about
 * a fifth of the parse time. */
#ifdef __GNUC__
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

static const char *const KEYS[7] = {
    "session_id", "app_label", "period_s", "workload_level",
    "performance", "interference_level", "traces",
};

typedef struct {
    const unsigned char *s;
    long i, n;
} cursor;

INLINE int is_digit(unsigned char ch) { return ch >= '0' && ch <= '9'; }

INLINE void skip_ws(cursor *c)
{
    while (c->i < c->n) {
        unsigned char ch = c->s[c->i];
        if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r')
            return;
        c->i++;
    }
}

/* Consume ch after optional whitespace; 0 if the next byte is another. */
INLINE int take(cursor *c, unsigned char ch)
{
    skip_ws(c);
    if (c->i < c->n && c->s[c->i] == ch) {
        c->i++;
        return 1;
    }
    return 0;
}

static int take_null(cursor *c)
{
    skip_ws(c);
    if (c->n - c->i >= 4 && memcmp(c->s + c->i, "null", 4) == 0) {
        c->i += 4;
        return 1;
    }
    return 0;
}

/* A string without escapes; its contents are s[*start, *end). */
static int take_string(cursor *c, long *start, long *end)
{
    if (!take(c, '"'))
        return 0;
    *start = c->i;
    while (c->i < c->n) {
        unsigned char ch = c->s[c->i];
        if (ch == '"') {
            *end = c->i++;
            return 1;
        }
        if (ch < 0x20 || ch > 0x7f || ch == '\\')
            return 0;
        c->i++;
    }
    return 0;
}

/* Append one mantissa digit; leading zeros are not significant.  At most
 * 19 significant digits, so w stays below 10^19 < 2^64. */
INLINE int add_digit(uint64_t *w, int *sig, unsigned char ch)
{
    if (*w == 0 && ch == '0')
        return 1;
    if (++*sig > 19)
        return 0;
    *w = *w * 10 + (uint64_t)(ch - '0');
    return 1;
}

#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SWAR 1
#define ONES UINT64_C(0x0101010101010101)
#define TOPS UINT64_C(0x8080808080808080)

static const uint64_t U10[9] = {1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000};

/* The value of 8 digits held one per byte, the first in the lowest byte. */
INLINE uint64_t eight_digits(uint64_t v)
{
    v = (v * 10 + (v >> 8)) & UINT64_C(0x00ff00ff00ff00ff);
    v = (v * 100 + (v >> 16)) & UINT64_C(0x0000ffff0000ffff);
    return (v * 10000 + (v >> 32)) & UINT64_C(0xffffffff);
}
#endif

/* Append the run of digits at the cursor to the mantissa, as add_digit
 * does one by one; the run's length, or -1 when the mantissa would take
 * more than 19 significant digits.  Where 8 bytes are left, they are read
 * as one word, so that neither the run's length nor its value costs a
 * branch per digit. */
INLINE long take_digits(cursor *c, uint64_t *w, int *sig)
{
    long start = c->i;
#ifdef SWAR
    while (c->n - c->i >= 8) {
        uint64_t x, nondigit, z;
        int k, lead;
        memcpy(&x, c->s + c->i, 8);
        x ^= '0' * ONES; /* a digit byte becomes its value, 0..9 */
        /* a byte's top bit is set when it is not a digit: 10 or more */
        nondigit = (((x & ~TOPS) + (0x80 - 10) * ONES) | x) & TOPS;
        k = nondigit ? __builtin_ctzll(nondigit) >> 3 : 8;
        if (k == 0)
            break;
        z = x << (8 * (8 - k)); /* the k digits, in the top k bytes */
        if (*w) {
            lead = 0;
        } else {
            /* leading zeros are not significant; z's bytes are at most 9 */
            uint64_t nonzero = (z + (0x80 - 1) * ONES) & TOPS;
            lead = nonzero ? (__builtin_ctzll(nonzero) >> 3) - (8 - k) : k;
        }
        *sig += k - lead;
        if (*sig > 19)
            return -1;
        *w = *w * U10[k] + eight_digits(z);
        c->i += k;
        if (k < 8)
            return c->i - start;
    }
#endif
    for (; c->i < c->n && is_digit(c->s[c->i]); c->i++)
        if (!add_digit(w, sig, c->s[c->i]))
            return -1;
    return c->i - start;
}

INLINE int take_number(cursor *c, double *out)
{
    const unsigned char *s = c->s;
    uint64_t w = 0;
    int neg = 0, integer = 1, sig = 0, exp_digits = 0;
    long e = 0, frac = 0;
    double v;

    skip_ws(c);
    if (c->i < c->n && s[c->i] == '-') {
        neg = 1;
        c->i++;
    }
    if (c->i >= c->n || !is_digit(s[c->i]))
        return 0;
    if (s[c->i] == '0')
        c->i++;
    else if (take_digits(c, &w, &sig) < 0)
        return 0;
    if (c->i < c->n && s[c->i] == '.') {
        integer = 0;
        c->i++;
        if (c->i >= c->n || !is_digit(s[c->i]))
            return 0;
        frac = take_digits(c, &w, &sig);
        if (frac < 0)
            return 0;
    }
    if (c->i < c->n && (s[c->i] == 'e' || s[c->i] == 'E')) {
        int eneg = 0;
        integer = 0;
        c->i++;
        if (c->i < c->n && (s[c->i] == '+' || s[c->i] == '-'))
            eneg = s[c->i++] == '-';
        if (c->i >= c->n || !is_digit(s[c->i]))
            return 0;
        for (; c->i < c->n && is_digit(s[c->i]); c->i++) {
            if (++exp_digits > 4)
                return 0;
            e = e * 10 + (s[c->i] - '0');
        }
        if (eneg)
            e = -e;
    }
    e -= frac;
    if (w == 0) {
        v = 0.0;
    } else {
        if (w > (UINT64_C(1) << 53) || e < -22 || e > 22)
            return 0;
        v = (double)w;
        v = e >= 0 ? v * P10[e] : v / P10[-e];
    }
    /* the integer -0 is int 0 in Python, and float(0) is +0.0 */
    *out = neg && !(integer && w == 0) ? -v : v;
    return 1;
}

static int key_index(const unsigned char *s, long len)
{
    int k;
    for (k = 0; k < 7; k++)
        if ((long)strlen(KEYS[k]) == len && memcmp(KEYS[k], s, (size_t)len) == 0)
            return k;
    return -1;
}

/* The traces object; the number of traces, or -1. */
static long take_traces(cursor *c, double *samples, long cap, long *spans, long max_traces)
{
    long ntr = 0, ns = 0, j;

    if (!take(c, '{'))
        return -1;
    for (;;) {
        long *t = spans + 4 * ntr;
        if (ntr == max_traces || !take_string(c, &t[0], &t[1]) || !take(c, ':')
            || !take(c, '['))
            return -1;
        for (j = 0; j < ntr; j++)
            if (spans[4 * j + 1] - spans[4 * j] == t[1] - t[0]
                && memcmp(c->s + spans[4 * j], c->s + t[0], (size_t)(t[1] - t[0])) == 0)
                return -1;
        t[2] = ns;
        if (!take(c, ']')) {
            for (;;) {
                if (ns == cap || !take_number(c, &samples[ns]))
                    return -1;
                ns++;
                if (take(c, ']'))
                    break;
                if (!take(c, ','))
                    return -1;
            }
        }
        t[3] = ns;
        ntr++;
        if (take(c, '}'))
            return ntr;
        if (!take(c, ','))
            return -1;
    }
}

long vmsight_parse_record(const char *line, long n, double *samples, long cap, long *spans,
                          long max_traces, double *nums)
{
    cursor c;
    unsigned seen = 0;
    long ntr = -1;

    c.s = (const unsigned char *)line;
    c.i = 0;
    c.n = n;
    if (!take(&c, '{'))
        return -1;
    for (;;) {
        long start, end;
        int k;
        if (!take_string(&c, &start, &end) || !take(&c, ':'))
            return -1;
        k = key_index(c.s + start, end - start);
        if (k < 0 || (seen & (1u << k)))
            return -1;
        seen |= 1u << k;
        if (k == 0) {
            if (!take_string(&c, &spans[0], &spans[1]))
                return -1;
        } else if (k == 1) {
            if (take_null(&c))
                spans[2] = spans[3] = -1;
            else if (!take_string(&c, &spans[2], &spans[3]))
                return -1;
        } else if (k == 6) {
            ntr = take_traces(&c, samples, cap, spans + 4, max_traces);
            if (ntr < 0)
                return -1;
        } else if (take_null(&c)) {
            nums[k - 2] = NAN;
        } else if (!take_number(&c, &nums[k - 2])) {
            return -1;
        }
        if (take(&c, '}'))
            break;
        if (!take(&c, ','))
            return -1;
    }
    skip_ws(&c);
    return c.i == c.n && seen == 0x7f ? ntr : -1;
}

/* The decimal digits of v, most significant first; their count. */
static int put_uint(char *out, uint64_t v)
{
    char tmp[20];
    int n = 0, i;
    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (i = 0; i < n; i++)
        out[i] = tmp[n - 1 - i];
    return n;
}

/* a * 10^k, one rounding where |k| <= 22; -1 where |k| is larger. */
INLINE double scaled(double a, int k)
{
    return k > 22 || k < -22 ? -1.0 : k >= 0 ? a * P10[k] : a / P10[-k];
}

/* One sample's text at out; the bytes written, or -1 to decline. */
INLINE long format_sample(double v, char *out)
{
    char *o = out, d[9];
    double a = fabs(v), p, n;
    int e, k, x, last, i;
    uint32_t m;

    if (!(a <= DBL_MAX))
        return -1;
    if (signbit(v))
        *o++ = '-';
    if (a < 1e16 && a == trunc(a)) {
        o += put_uint(o, (uint64_t)a);
        *o++ = '.';
        *o++ = '0';
        return o - out;
    }
    if (a < DBL_MIN)
        return -1;
    /* a lies in [2^(e-1), 2^e), so floor(log10 a) is d or d + 1 */
    frexp(a, &e);
    k = 8 - (int)floor((e - 1) * 0.30102999566398120);
    p = scaled(a, k);
    if (p >= 1e9 || p < 0)
        p = scaled(a, --k);
    n = rint(p);
    if (n == 1e9) { /* a lies just below a power of ten */
        n = 1e8;
        k--;
    }
    if (!(n >= 1e8 && n < 1e9) || scaled(n, -k) != a)
        return -1;
    m = (uint32_t)n;
    for (i = 8; i >= 0; i--) {
        d[i] = (char)('0' + m % 10);
        m /= 10;
    }
    for (last = 8; last > 0 && d[last] == '0'; last--)
        ; /* "%g" drops trailing zeros */
    x = 8 - k; /* the decimal exponent of d[0] */
    if (x >= 0 && x < 9) {
        memcpy(o, d, (size_t)x + 1);
        o += x + 1;
        if (last > x) {
            *o++ = '.';
            memcpy(o, d + x + 1, (size_t)(last - x));
            o += last - x;
        }
    } else if (x < 0 && x >= -4) {
        *o++ = '0';
        *o++ = '.';
        for (i = -1; i > x; i--)
            *o++ = '0';
        memcpy(o, d, (size_t)last + 1);
        o += last + 1;
    } else {
        *o++ = d[0];
        if (last > 0) {
            *o++ = '.';
            memcpy(o, d + 1, (size_t)last);
            o += last;
        }
        *o++ = 'e';
        *o++ = x < 0 ? '-' : '+';
        if (x < 0)
            x = -x;
        if (x >= 100)
            *o++ = (char)('0' + x / 100);
        *o++ = (char)('0' + x / 10 % 10);
        *o++ = (char)('0' + x % 10);
    }
    return o - out;
}

long vmsight_format_samples(const double *samples, long n, char *out)
{
    char *o = out;
    long i, len;

    *o++ = '[';
    for (i = 0; i < n; i++) {
        if (i > 0) {
            *o++ = ',';
            *o++ = ' ';
        }
        len = format_sample(samples[i], o);
        if (len < 0)
            return -1;
        o += len;
    }
    *o++ = ']';
    return o - out;
}
