/* Compiled tick engine: a C transliteration of engine_numpy.run_one_numpy.
 *
 * Bit-identity contract (same as the NumPy reference):
 *   - Python's min(a, b) / max(a, b) become the exact conditionals the
 *     builtins evaluate (`b if b < a else a`), preserving ties.
 *   - Float expressions keep the source's association; constant-only
 *     subexpressions (seek_span, tr_unit, gc_over_denom) are seeded
 *     pre-reduced by the Python caller, exactly as engine_numpy does.
 *   - math.log2 is libm log2, so feature binning matches bit-for-bit.
 *   - The agent's PCG64 stream is replicated natively (including
 *     numpy's buffered 32-bit Lemire rejection for `integers`), and its
 *     state round-trips through `Generator.bit_generator.state`.
 *   - Replay dedup keys use the same 51-byte serialisation, with an
 *     exact double->half (round-to-nearest-even) conversion.
 *
 * The kernel owns no Python objects.  The caller (engine_c.py) passes
 * one table of raw array pointers; everything the serial path mutates
 * lives in those arrays and is written back to the live objects at the
 * end.  Work the kernel cannot do natively suspends the run instead:
 * sib_run() returns NEED_INFERENCE (action-memo miss -> the caller runs
 * the NN forward) or TRAIN_GATE (a training event is due -> the caller
 * drives train_begin/train_commit) and is re-entered where it left off.
 *
 * A *scripted* lane (CI_SCRIPTED; script.py) made its decisions ahead of
 * the replay: the tick takes script[i], skips observe/memo/replay/reward
 * and the train gate, and runs the same serve block and do_evict as an
 * agent tick -- one copy of each, two callers.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The ABI -- the P_, CI_, CD_, DD_, DI_, HI_, HD_ indices, the strides,
 * the ST_ status codes, the state struct S and sib_bind() -- is generated
 * from the table in abi.py (engine_c.py renders it beside the build;
 * `python -m repro.sim.kernels.abi` prints it). */
#include "sib_abi.h"

/* ------------------------------------------------- PCG64 (numpy exact) */
typedef struct {
    __uint128_t state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

static inline uint64_t rotr64(uint64_t v, int rot) {
    return (v >> rot) | (v << ((-rot) & 63));
}

static const __uint128_t PCG_MULT =
    (((__uint128_t)2549297995355413924ULL) << 64) | 4865540595714422341ULL;

static inline uint64_t pcg64_next(pcg64_t *rng) {
    rng->state = rng->state * PCG_MULT + rng->inc;
    return rotr64((uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state,
                  (int)(rng->state >> 122));
}

static inline uint32_t next_uint32(pcg64_t *rng) {
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t v = pcg64_next(rng);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(v >> 32);
    return (uint32_t)v;
}

/* Generator.random(): one 53-bit draw. */
static inline double pcg_random(pcg64_t *rng) {
    return (pcg64_next(rng) >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator.integers(0, n) for int64 dtype with n-1 in [1, UINT32_MAX]:
 * numpy's buffered 32-bit Lemire rejection. */
static inline int64_t pcg_integers(pcg64_t *rng, uint64_t n) {
    uint32_t rng_incl = (uint32_t)(n - 1);
    if (rng_incl == 0)
        return 0;
    const uint32_t rng_excl = rng_incl + 1;
    uint64_t m = ((uint64_t)next_uint32(rng)) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = ((uint32_t)(UINT32_MAX - rng_incl)) % rng_excl;
        while (leftover < threshold) {
            m = ((uint64_t)next_uint32(rng)) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* ------------------------------------------- float64 -> float16 (RN-even)
 * Direct single-rounding conversion, exactly np.float16(double).  The
 * obvious double->float->half path double-rounds; this one matches numpy
 * on every half pattern, every tie midpoint, and the subnormal range. */
static uint16_t f64_to_f16(double x) {
    uint64_t bits;
    memcpy(&bits, &x, 8);
    uint16_t sign = (uint16_t)((bits >> 48) & 0x8000);
    uint64_t abs_ = bits & 0x7FFFFFFFFFFFFFFFULL;
    int exp = (int)(abs_ >> 52);
    uint64_t mant = abs_ & 0xFFFFFFFFFFFFFULL;
    if (exp == 0x7FF) /* inf / nan */
        return mant ? (uint16_t)(sign | 0x7E00) : (uint16_t)(sign | 0x7C00);
    if (abs_ == 0)
        return sign;
    if (exp == 0) /* f64 subnormal: far below the half range */
        return sign;
    int e = exp - 1023;
    if (e >= 16)
        return (uint16_t)(sign | 0x7C00);
    if (e >= -14) { /* candidate normal half */
        uint64_t half_mant = mant >> 42;
        uint64_t rem = mant & ((1ULL << 42) - 1);
        uint64_t round_bit = 1ULL << 41;
        if (rem > round_bit || (rem == round_bit && (half_mant & 1)))
            half_mant++;
        uint32_t out = (uint32_t)(((uint32_t)(e + 15) << 10) + half_mant);
        if (out >= 0x7C00) /* rounded up across the top */
            return (uint16_t)(sign | 0x7C00);
        return (uint16_t)(sign | out);
    }
    if (e < -25) /* below half the smallest subnormal: to zero */
        return sign;
    /* subnormal half: q = round(value * 2^24), RN-even on the remainder */
    uint64_t sig = (1ULL << 52) | mant; /* value = sig * 2^(e-52) */
    int sh = 28 - e;                    /* in [43, 53] */
    uint64_t q = sig >> sh;
    uint64_t rem = sig & ((1ULL << sh) - 1);
    uint64_t half = 1ULL << (sh - 1);
    if (rem > half || (rem == half && (q & 1)))
        q++;
    return (uint16_t)(sign | (uint16_t)q);
}

/* ------------------------------------------------------------- hashing */
static inline uint64_t fnv1a(const uint8_t *b, int len) {
    uint64_t h = 1469598103934665603ULL;
    for (int i = 0; i < len; i++) {
        h ^= b[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/* ------------------------------------------------------ page LRU lists */
static inline void lru_append(S *s, int64_t d, int64_t p) {
    int64_t tail = s->ci[CI_TAIL0 + 2 * d];
    s->lprev[p] = (int32_t)tail;
    s->lnext[p] = -1;
    if (tail >= 0)
        s->lnext[tail] = (int32_t)p;
    else
        s->ci[CI_HEAD0 + 2 * d] = p;
    s->ci[CI_TAIL0 + 2 * d] = p;
    s->ci[CI_RES0 + d]++;
}

static inline void lru_remove(S *s, int64_t d, int64_t p) {
    int32_t pr = s->lprev[p], nx = s->lnext[p];
    if (pr >= 0)
        s->lnext[pr] = nx;
    else
        s->ci[CI_HEAD0 + 2 * d] = nx;
    if (nx >= 0)
        s->lprev[nx] = pr;
    else
        s->ci[CI_TAIL0 + 2 * d] = pr;
    s->ci[CI_RES0 + d]--;
}

static inline void lru_mte(S *s, int64_t d, int64_t p) { /* move_to_end */
    if (s->ci[CI_TAIL0 + 2 * d] == p)
        return;
    lru_remove(s, d, p);
    lru_append(s, d, p);
}

/* -------------------------------------------------------- device model */
static double dev_service(S *s, int d, double start, int64_t page,
                          int64_t n, int is_write) {
    double *dd = s->dd + d * DD_STRIDE;
    int64_t *di = s->di + d * DI_STRIDE;
    if (di[DI_TYPE] == 1) { /* HDD: _point_head + service_time */
        di[DI_TARGET] = page;
        int64_t delta = page - di[DI_HEAD];
        double positioning;
        if (delta >= 0 && delta <= di[DI_SEQWIN]) {
            positioning = 0.0;
        } else {
            int64_t distance = delta < 0 ? -delta : delta;
            if (distance <= di[DI_TRACKSPAN]) {
                positioning = dd[DD_AVG_ROT];
            } else {
                double frac = (double)distance / (double)di[DI_CAPPAGES];
                frac = frac < 1.0 ? frac : 1.0;
                double seek = dd[DD_MIN_SEEK] + dd[DD_SEEK_SPAN] * sqrt(frac);
                positioning = seek + dd[DD_AVG_ROT];
            }
        }
        di[DI_HEAD] = page + n;
        double overhead = is_write ? dd[DD_WOVER] : dd[DD_ROVER];
        double bw = is_write ? dd[DD_WBW] : dd[DD_RBW];
        return positioning + overhead + (double)(n * 4096) / bw;
    }
    /* SSD */
    if (!is_write) {
        if (n == 1)
            return dd[DD_READ1];
        return dd[DD_ROVER] + (double)(n * 4096) / dd[DD_RBW];
    }
    /* SSD write: buffer drain + GC debt + buffered-vs-direct */
    double elapsed = start - dd[DD_BUF_LAST];
    if (elapsed > 0.0) {
        double occ = dd[DD_BUF_OCC] - elapsed * dd[DD_WBW] / 4096.0;
        dd[DD_BUF_OCC] = occ > 0.0 ? occ : 0.0;
    }
    dd[DD_BUF_LAST] = start;
    double stall;
    if (dd[DD_UTIL] < dd[DD_GC_THRESH]) {
        di[DI_WSG] = 0;
        stall = 0.0;
    } else {
        int64_t writes = di[DI_WSG] + n;
        if (writes < di[DI_GC_TRIG]) {
            di[DI_WSG] = writes;
            stall = 0.0;
        } else {
            int64_t cycles = writes / di[DI_GC_TRIG];
            di[DI_WSG] = writes % di[DI_GC_TRIG];
            double over = (dd[DD_UTIL] - dd[DD_GC_THRESH]) / dd[DD_GC_DENOM];
            stall = (double)cycles * dd[DD_GC_LAT] * (1.0 + 3.0 * over);
            di[DI_GC_EVENTS] += cycles;
            dd[DD_GC_TIME] += stall;
        }
    }
    double occ = dd[DD_BUF_OCC];
    double base;
    if (di[DI_BUF_PAGES] > 0 && occ + (double)n <= (double)di[DI_BUF_PAGES]) {
        dd[DD_BUF_OCC] = occ + (double)n;
        di[DI_BUFFERED]++;
        base = dd[DD_BUF_LAT] + (double)n * dd[DD_TR_UNIT] * 0.25;
    } else {
        base = dd[DD_WOVER] + (double)(n * 4096) / dd[DD_WBW];
    }
    return base + stall;
}

/* StorageDevice.access */
static double fg_access(S *s, int d, double now, int64_t page, int64_t n,
                        int is_write) {
    double *dd = s->dd + d * DD_STRIDE;
    int64_t *di = s->di + d * DI_STRIDE;
    double nf = dd[DD_NEXT_FREE];
    double start = nf > now ? nf : now;
    double service = dev_service(s, d, start, page, n, is_write);
    dd[DD_NEXT_FREE] = start + service;
    dd[DD_QWAIT] += start - now;
    dd[DD_BUSY] += service;
    if (is_write) {
        di[DI_WRITES]++;
        di[DI_PW] += n;
    } else {
        di[DI_READS]++;
        di[DI_PR] += n;
    }
    return (start - now) + service;
}

/* StorageDevice.background_access */
static double bg_access(S *s, int d, double now, int64_t page, int64_t n,
                        int is_write) {
    double *dd = s->dd + d * DD_STRIDE;
    int64_t *di = s->di + d * DI_STRIDE;
    double nf = dd[DD_NEXT_FREE];
    double start = nf > now ? nf : now;
    double service = dev_service(s, d, start, page, n, is_write);
    dd[DD_NEXT_FREE] = start + dd[DD_BI] * service;
    dd[DD_BUSY] += service;
    if (is_write)
        di[DI_PW] += n;
    else
        di[DI_PR] += n;
    return service;
}

/* HybridStorageSystem._update_utilization */
static inline void upd_util(S *s, int64_t d) {
    int64_t *di = s->di + d * DI_STRIDE;
    if (di[DI_HAS_UTIL]) {
        double v = (double)s->ci[CI_RES0 + d] / (double)di[DI_UTIL_CAP];
        s->dd[d * DD_STRIDE + DD_UTIL] = v < 1.0 ? v : 1.0;
    }
}

/* --------------------------------------------------------- evictions */
/* victim_selector.select(table, 0, n) into s->victims; returns how many.
 * LRUVictimSelector takes the first n of the LRU walk.  So does
 * BeladyVictimSelector (CI_BELADY_NOW >= 0 is its `now`) while
 * resident <= n; otherwise it is Python's stable
 * `resident.sort(key=next_use, reverse=True)[:n]`: the n farthest next
 * uses, ties in LRU order, kept sorted by insertion as the walk goes. */
static int64_t select_victims(S *s, int64_t n) {
    const int64_t bnow = s->ci[CI_BELADY_NOW];
    int64_t nv = 0;
    if (bnow < 0 || s->ci[CI_RES0] <= n) {
        for (int64_t p = s->ci[CI_HEAD0]; p >= 0 && nv < n; p = s->lnext[p])
            s->victims[nv++] = (int32_t)p;
        return nv;
    }
    for (int64_t p = s->ci[CI_HEAD0]; p >= 0; p = s->lnext[p]) {
        int64_t k = s->fu_cur[p], end = s->fu_off[p + 1];
        while (k < end && s->fu_idx[k] < bnow) /* next_use's cursor */
            k++;
        s->fu_cur[p] = k;
        int64_t key = k < end ? s->fu_idx[k] : INT64_MAX; /* never: inf */
        if (nv == n && key <= s->vkey[n - 1])
            continue; /* no farther than the nearest kept: earlier wins */
        int64_t j = nv < n ? nv++ : n - 1;
        for (; j > 0 && s->vkey[j - 1] < key; j--) {
            s->vkey[j] = s->vkey[j - 1];
            s->victims[j] = s->victims[j - 1];
        }
        s->vkey[j] = key;
        s->victims[j] = (int32_t)p;
    }
    return nv;
}

/* HybridStorageSystem._evict(0, n, now): two devices, dest unbounded. */
static double do_evict(S *s, int64_t n, double now) {
    int64_t nv = select_victims(s, n);
    if (nv == 0)
        return 0.0;
    double read_time = 0.0, write_time = 0.0;
    if (nv == 1) {
        int32_t v = s->victims[0];
        int64_t run = s->uniq[v];
        read_time = bg_access(s, 0, now, run, 1, 0);
        write_time = bg_access(s, 1, now, run, 1, 1);
        lru_remove(s, 0, v);
        s->loc[v] = 1;
        lru_append(s, 1, v);
    } else {
        memcpy(s->vsort, s->victims, (size_t)nv * sizeof(int32_t));
        for (int64_t i = 1; i < nv; i++) { /* dense asc == page asc */
            int32_t x = s->vsort[i];
            int64_t j = i - 1;
            while (j >= 0 && s->vsort[j] > x) {
                s->vsort[j + 1] = s->vsort[j];
                j--;
            }
            s->vsort[j + 1] = x;
        }
        int64_t i = 0;
        while (i < nv) { /* _contiguous_runs over actual page numbers */
            int64_t j = i + 1;
            while (j < nv &&
                   s->uniq[s->vsort[j]] == s->uniq[s->vsort[j - 1]] + 1)
                j++;
            int64_t run_start = s->uniq[s->vsort[i]];
            read_time += bg_access(s, 0, now, run_start, j - i, 0);
            write_time += bg_access(s, 1, now, run_start, j - i, 1);
            i = j;
        }
        for (int64_t k = 0; k < nv; k++) { /* moves in selection order */
            int32_t v = s->victims[k];
            lru_remove(s, 0, v);
            s->loc[v] = 1;
            lru_append(s, 1, v);
        }
    }
    upd_util(s, 0);
    upd_util(s, 1);
    s->hi[HI_EVENTS]++;
    s->hi[HI_EVICTED] += nv;
    /* cascade_time is 0.0 (unbounded destination), so this sum is
     * bit-identical to cascade + read + write. */
    return read_time + write_time;
}

/* HybridStorageSystem._ensure_capacity: only device 0 is bounded. */
static double ensure_capacity(S *s, int64_t action, int64_t incoming,
                              double now) {
    if (action != 0)
        return 0.0;
    int64_t used = s->ci[CI_RES0];
    int64_t overflow = used + incoming - s->ci[CI_CAP0];
    if (overflow <= 0)
        return 0.0;
    int64_t a = overflow + s->ci[CI_SLACK];
    int64_t nv = used < a ? used : a;
    if (nv <= 0)
        return 0.0;
    return do_evict(s, nv, now);
}

/* ------------------------------------------------------ replay buffer */
static void rb_fifo_append(S *s, int32_t slot) {
    int64_t tail = s->ci[CI_RB_TAIL];
    s->rb_fprev[slot] = (int32_t)tail;
    s->rb_fnext[slot] = -1;
    if (tail >= 0)
        s->rb_fnext[tail] = slot;
    else
        s->ci[CI_RB_HEAD] = slot;
    s->ci[CI_RB_TAIL] = slot;
}

static void rb_fifo_remove(S *s, int32_t slot) {
    int32_t pr = s->rb_fprev[slot], nx = s->rb_fnext[slot];
    if (pr >= 0)
        s->rb_fnext[pr] = nx;
    else
        s->ci[CI_RB_HEAD] = nx;
    if (nx >= 0)
        s->rb_fprev[nx] = pr;
    else
        s->ci[CI_RB_TAIL] = pr;
}

static void rb_rehash(S *s) {
    int64_t hc = s->ci[CI_RB_HASHCAP];
    for (int64_t i = 0; i < hc; i++)
        s->rb_hash[i] = -1;
    s->ci[CI_RB_TOMB] = 0;
    uint64_t mask = (uint64_t)(hc - 1);
    for (int64_t sl = s->ci[CI_RB_HEAD]; sl >= 0; sl = s->rb_fnext[sl]) {
        uint64_t h = fnv1a(s->rb_keys + sl * 51, 51) & mask;
        while (s->rb_hash[h] != -1)
            h = (h + 1) & mask;
        s->rb_hash[h] = (int32_t)sl;
    }
}

/* ExperienceBuffer.add with precomposed obs serialisations. */
static void rb_add(S *s, const double *obs, int64_t action, double reward,
                   const double *nobs, const uint8_t *obs_key,
                   const uint8_t *nobs_key) {
    uint8_t key[51];
    memcpy(key, obs_key, 24);
    key[24] = (uint8_t)(action & 0xFF);
    uint16_t h16 = f64_to_f16(reward); /* rewards are >= +0.0 here */
    key[25] = (uint8_t)(h16 & 0xFF);
    key[26] = (uint8_t)(h16 >> 8);
    memcpy(key + 27, nobs_key, 24);

    int64_t hc = s->ci[CI_RB_HASHCAP];
    uint64_t mask = (uint64_t)(hc - 1);
    uint64_t h = fnv1a(key, 51) & mask;
    int32_t slot = -1;
    for (;;) {
        int32_t cell = s->rb_hash[h];
        if (cell == -1)
            break;
        if (cell != -2 &&
            memcmp(s->rb_keys + (int64_t)cell * 51, key, 51) == 0) {
            slot = cell;
            break;
        }
        h = (h + 1) & mask;
    }
    if (slot >= 0) { /* dup: bump multiplicity, refresh recency */
        s->rb_mult[slot] += 1.0;
        rb_fifo_remove(s, slot);
        rb_fifo_append(s, slot);
    } else {
        while (s->ci[CI_RB_NENT] >= s->ci[CI_RB_CAP]) { /* FIFO eviction */
            int32_t ev = (int32_t)s->ci[CI_RB_HEAD];
            uint64_t eh = fnv1a(s->rb_keys + (int64_t)ev * 51, 51) & mask;
            while (s->rb_hash[eh] != ev)
                eh = (eh + 1) & mask;
            s->rb_hash[eh] = -2;
            s->ci[CI_RB_TOMB]++;
            rb_fifo_remove(s, ev);
            s->rb_mult[ev] = 0.0;
            s->rb_free[s->ci[CI_RB_FREE_N]++] = ev;
            s->ci[CI_RB_NENT]--;
        }
        if (s->ci[CI_RB_FREE_N] > 0)
            slot = s->rb_free[--s->ci[CI_RB_FREE_N]];
        else
            slot = (int32_t)s->ci[CI_RB_NENT];
        if ((int64_t)slot + 1 > s->ci[CI_RB_SLOT_HI])
            s->ci[CI_RB_SLOT_HI] = slot + 1;
        memcpy(s->rb_obs + (int64_t)slot * 6, obs, 48);
        memcpy(s->rb_nobs + (int64_t)slot * 6, nobs, 48);
        s->rb_act[slot] = action;
        s->rb_rew[slot] = reward;
        s->rb_mult[slot] = 1.0;
        memcpy(s->rb_keys + (int64_t)slot * 51, key, 51);
        uint64_t ip = fnv1a(key, 51) & mask;
        int64_t tomb = -1;
        while (s->rb_hash[ip] != -1) {
            if (s->rb_hash[ip] == -2 && tomb < 0)
                tomb = (int64_t)ip;
            ip = (ip + 1) & mask;
        }
        if (tomb >= 0) {
            s->rb_hash[tomb] = slot;
            s->ci[CI_RB_TOMB]--;
        } else {
            s->rb_hash[ip] = slot;
        }
        rb_fifo_append(s, slot);
        s->ci[CI_RB_NENT]++;
        if ((s->ci[CI_RB_NENT] + s->ci[CI_RB_TOMB]) * 4 >= hc * 3)
            rb_rehash(s);
    }
    s->ci[CI_RB_TOTAL]++;
}

/* -------------------------------------------------------- action memo */
static int64_t memo_get(S *s, const uint8_t *key24) {
    uint64_t mask = (uint64_t)(s->ci[CI_MEMO_HASHCAP] - 1);
    uint64_t h = fnv1a(key24, 24) & mask;
    for (;;) {
        int32_t cell = s->memo_hash[h];
        if (cell == -1)
            return -1;
        if (memcmp(s->memo_keys + (int64_t)cell * 24, key24, 24) == 0)
            return s->memo_act[cell];
        h = (h + 1) & mask;
    }
}

/* Stage key+obs at the next memo slot (before suspending for inference);
 * commit fills the action and links the hash cell on resume. */
static void memo_stage(S *s, const uint8_t *key24, const double *obs) {
    int64_t n = s->ci[CI_MEMO_N];
    memcpy(s->memo_keys + n * 24, key24, 24);
    memcpy(s->memo_obs + n * 6, obs, 48);
}

static void memo_commit(S *s, int64_t action) {
    int64_t n = s->ci[CI_MEMO_N];
    s->memo_act[n] = (int32_t)action;
    uint64_t mask = (uint64_t)(s->ci[CI_MEMO_HASHCAP] - 1);
    uint64_t h = fnv1a(s->memo_keys + n * 24, 24) & mask;
    while (s->memo_hash[h] != -1)
        h = (h + 1) & mask;
    s->memo_hash[h] = (int32_t)n;
    s->ci[CI_MEMO_N] = n + 1;
}

/* core.features.log2_bin for integer-valued inputs >= 0 */
static inline int64_t log2b(int64_t v, int64_t nb) {
    if (v < 1)
        return 0;
    int64_t b = (int64_t)log2((double)v);
    int64_t m = nb - 1;
    return b < m ? b : m;
}

/* ------------------------------------------------------------ the run */
/* engine_c.py compares this with the hash of the table it packs by. */
unsigned long long sib_abi_hash(void) { return SIB_ABI_HASH; }

long long sib_run(void **p) {
    S st;
    S *s = &st;
    sib_bind(s, p);

    int64_t *ci = s->ci;
    double *cd = s->cd;

    /* A scripted lane binds placeholders to every agent slot (RNG,
     * replay, memo, counts): nothing below may touch them for it. */
    const int scripted = (int)ci[CI_SCRIPTED];

    pcg64_t rng = {0, 0, 0, 0};
    if (!scripted) {
        rng.state = (((__uint128_t)s->rngst[0]) << 64) | s->rngst[1];
        rng.inc = (((__uint128_t)s->rngst[2]) << 64) | s->rngst[3];
        rng.has_uint32 = (int)s->rngst[4];
        rng.uinteger = (uint32_t)s->rngst[5];
    }

    const int64_t n_total = ci[CI_NTOTAL];
    const int64_t warmup_end = ci[CI_WARMUP];
    const int64_t train_interval = ci[CI_TRAIN_INT];
    const int64_t batch_size = ci[CI_BATCH];
    const int64_t init_random = ci[CI_INIT_RAND];
    const int64_t ndev = ci[CI_NDEV];
    const int64_t size_bins = ci[CI_SIZE_BINS];
    const int64_t intr_bins = ci[CI_INTR_BINS];
    const int64_t cnt_bins = ci[CI_CNT_BINS];
    const int64_t cap_bins = ci[CI_CAP_BINS];
    const double eps = cd[CD_EPS];
    const double unit = cd[CD_UNIT];
    const double evict_coef = cd[CD_EVICT_COEF];
    const double max_reward = cd[CD_MAX_REWARD];

    int64_t i = ci[CI_I];
    int resumed = (int)ci[CI_RESUMED];
    int64_t seen = ci[CI_SEEN];
    int64_t clock = ci[CI_CLOCK];
    double completion_s = cd[CD_COMPLETION];

    for (; i < n_total; i++) {
        double now;
        int64_t dp, size, action;
        int is_wr;
        double obs[6];
        uint8_t obs_key[24];

        if (resumed) { /* back from inference: commit memo, rejoin tick */
            resumed = 0;
            ci[CI_RESUMED] = 0;
            action = ci[CI_ACTION];
            int64_t mslot = ci[CI_MEMO_N];
            memcpy(obs, s->memo_obs + mslot * 6, 48);
            memcpy(obs_key, s->memo_keys + mslot * 24, 24);
            memo_commit(s, action);
            now = s->ts[i];
            dp = s->dpage[i];
            size = s->size[i];
            is_wr = s->op[i];
            goto after_decision;
        }

        /* _fetch(): warmup-window reset before request warmup_end */
        if (i == warmup_end && i > 0) {
            for (int k = 0; k < HI_LEN; k++)
                s->hi[k] = 0;
            for (int k = 0; k < HD_LEN; k++)
                s->hd[k] = 0.0;
            for (int64_t d = 0; d < ndev; d++) {
                int64_t *di = s->di + d * DI_STRIDE;
                di[DI_READS] = di[DI_WRITES] = di[DI_PR] = di[DI_PW] = 0;
                di[DI_GC_EVENTS] = di[DI_BUFFERED] = 0;
                double *dd = s->dd + d * DD_STRIDE;
                dd[DD_BUSY] = dd[DD_QWAIT] = dd[DD_GC_TIME] = 0.0;
            }
        }

        now = s->ts[i];
        dp = s->dpage[i];
        size = s->size[i];
        is_wr = s->op[i];

        if (scripted) { /* the decision was made ahead of the replay */
            action = s->script[i];
            if (action < 0) /* CDE's "where the first page lives" */
                action = s->loc[dp] < 0 ? 1 : s->loc[dp];
            if (ci[CI_BELADY_NOW] >= 0) /* OraclePolicy.place: selector.now */
                ci[CI_BELADY_NOW] = clock + size;
            goto serve;
        }

        /* ---- observe_keyed (features._bins_all) ---- */
        {
            int64_t size_bin = log2b(size, size_bins);
            int64_t lastv = s->last[dp];
            int64_t intr_bin =
                lastv < 0 ? intr_bins - 1 : log2b(clock - lastv, intr_bins);
            int64_t cntv = s->cnt[dp] + 1;
            int64_t cnt_bin = log2b(cntv, cnt_bins);
            double frac =
                (double)(ci[CI_CAP0] - ci[CI_RES0]) / (double)ci[CI_CAP0];
            int64_t cap_bin;
            if (frac >= 1.0)
                cap_bin = cap_bins - 1;
            else if (frac <= 0.0)
                cap_bin = 0;
            else
                cap_bin = (int64_t)(frac * (double)cap_bins);
            int8_t locv = s->loc[dp];
            int64_t bins[6] = {size_bin,
                               (int64_t)is_wr,
                               intr_bin,
                               cnt_bin,
                               cap_bin,
                               locv < 0 ? 1 : (int64_t)locv};
            for (int k = 0; k < 6; k++)
                obs[k] = (double)bins[k] / s->maxima[k];
            for (int k = 0; k < 6; k++) {
                float f = (float)obs[k];
                memcpy(obs_key + 4 * k, &f, 4);
            }
        }

        /* ---- close the previous transition ---- */
        if (ci[CI_PENDING]) {
            rb_add(s, s->pend_obs, ci[CI_PEND_ACTION], cd[CD_PEND_REWARD],
                   obs, s->pend_key, obs_key);
            ci[CI_PENDING] = 0;
        }

        /* ---- epsilon-greedy decision ---- */
        if (seen < init_random) {
            action = pcg_integers(&rng, (uint64_t)ndev);
        } else if (pcg_random(&rng) < eps) {
            action = pcg_integers(&rng, (uint64_t)ndev);
        } else {
            action = memo_get(s, obs_key);
            if (action < 0) { /* memo miss: hand the forward to Python */
                if (ci[CI_MEMO_N] >= ci[CI_MEMO_CAP]) {
                    ci[CI_ERR] = 1;
                    ci[CI_STATUS] = ST_ERROR;
                    ci[CI_I] = i;
                    goto save_state;
                }
                memo_stage(s, obs_key, obs);
                memcpy(s->obs_mail, obs, 48);
                ci[CI_I] = i;
                ci[CI_RESUMED] = 1;
                ci[CI_STATUS] = ST_NEED_INFERENCE;
                goto save_state;
            }
        }

    after_decision:
        s->action_counts[action]++;

    serve:
        /* closed-loop issue-time clamp */
        if (now < completion_s)
            now = completion_s;

        /* ---- HybridStorageSystem.serve ---- */
        {
            double eviction_time = 0.0, latency;
            int64_t promoted = 0, demoted = 0;
            int64_t pend = dp + size;
            int64_t actual = s->uniq[dp];

            if (is_wr) {
                int64_t incoming = 0;
                for (int64_t pp = dp; pp < pend; pp++) {
                    if (s->loc[pp] == action)
                        lru_mte(s, action, pp);
                    else
                        incoming++;
                }
                if (incoming > 0)
                    eviction_time += ensure_capacity(s, action, incoming, now);
                latency = fg_access(s, (int)action, now, actual, size, 1);
                for (int64_t pp = dp; pp < pend; pp++) { /* table.place */
                    int8_t prev = s->loc[pp];
                    if (prev < 0) {
                        s->loc[pp] = (int8_t)action;
                        lru_append(s, action, pp);
                    } else if (prev == action) {
                        lru_mte(s, action, pp);
                    } else {
                        lru_remove(s, prev, pp);
                        s->loc[pp] = (int8_t)action;
                        lru_append(s, action, pp);
                    }
                }
                upd_util(s, action);
            } else if (size == 1) {
                int64_t locv = s->loc[dp];
                if (locv < 0) { /* lazy map to the slowest device */
                    locv = 1;
                    s->loc[dp] = 1;
                    lru_append(s, 1, dp);
                }
                latency = fg_access(s, (int)locv, now, actual, 1, 0);
                lru_mte(s, locv, dp);
                if (locv != action) {
                    eviction_time += ensure_capacity(s, action, 1, now);
                    bg_access(s, (int)action, now, actual, 1, 1);
                    if (action < locv)
                        promoted = 1;
                    else
                        demoted = 1;
                    lru_remove(s, locv, dp);
                    s->loc[dp] = (int8_t)action;
                    lru_append(s, action, dp);
                    upd_util(s, locv);
                    upd_util(s, action);
                }
            } else {
                int64_t gcount[2] = {0, 0}, gfirst[2] = {-1, -1};
                for (int64_t pp = dp; pp < pend; pp++) {
                    int8_t l = s->loc[pp];
                    if (l < 0) {
                        l = 1;
                        s->loc[pp] = 1;
                        lru_append(s, 1, pp);
                    }
                    if (gcount[l] == 0)
                        gfirst[l] = pp;
                    gcount[l]++;
                }
                latency = 0.0;
                for (int64_t d = 0; d < 2; d++) { /* sorted(groups) */
                    if (gcount[d] == 0)
                        continue;
                    double lat = fg_access(s, (int)d, now, s->uniq[gfirst[d]],
                                           gcount[d], 0);
                    if (lat >= latency)
                        latency = lat;
                    for (int64_t pp = dp; pp < pend; pp++)
                        if (s->loc[pp] == d)
                            lru_mte(s, d, pp);
                }
                int64_t ngroups = (gcount[0] > 0) + (gcount[1] > 0);
                int64_t n_move = 0, mfirst = -1;
                /* to_move membership is fixed BEFORE ensure_capacity:
                 * an eviction below may push this request's own
                 * device-0 pages to device 1, and re-checking loc
                 * afterwards would wrongly drag them back (the serial
                 * path builds to_move first, then evicts). */
                uint8_t mv_stack[256];
                uint8_t *mv = NULL;
                if (ngroups > 1 || gcount[action] == 0) {
                    mv = size <= 256 ? mv_stack
                                     : (uint8_t *)malloc((size_t)size);
                    if (mv == NULL) { /* out of memory: abort the run */
                        ci[CI_ERR] = 2;
                        ci[CI_STATUS] = ST_ERROR;
                        ci[CI_I] = i;
                        goto save_state;
                    }
                    for (int64_t pp = dp; pp < pend; pp++) {
                        uint8_t m = (uint8_t)(s->loc[pp] != action);
                        mv[pp - dp] = m;
                        if (m) {
                            if (n_move == 0)
                                mfirst = pp;
                            n_move++;
                        }
                    }
                }
                if (n_move > 0) {
                    int64_t src = 1 - action; /* the only other device */
                    eviction_time += ensure_capacity(s, action, n_move, now);
                    bg_access(s, (int)action, now, s->uniq[mfirst], n_move, 1);
                    if (action < src)
                        promoted += n_move;
                    else
                        demoted += n_move;
                    for (int64_t pp = dp; pp < pend; pp++) {
                        if (mv[pp - dp]) { /* table.move */
                            lru_remove(s, src, pp);
                            s->loc[pp] = (int8_t)action;
                            lru_append(s, action, pp);
                        }
                    }
                    upd_util(s, src);
                    upd_util(s, action);
                }
                if (mv != NULL && mv != mv_stack)
                    free(mv);
            }

            /* tracker.record + stats tail */
            for (int64_t pp = dp; pp < pend; pp++) {
                s->cnt[pp]++;
                s->last[pp] = clock;
                clock++;
            }
            s->hi[HI_REQUESTS]++;
            if (is_wr)
                s->hi[HI_WRITES]++;
            else
                s->hi[HI_READS]++;
            s->hd[HD_TOTAL_LAT] += latency;
            s->hd[HD_EVICT_TIME] += eviction_time;
            s->hi[HI_PROMOTED] += promoted;
            s->hi[HI_DEMOTED] += demoted;
            s->hi[HI_PLACE0 + action]++;
            double completion = now + latency;
            if (completion > s->hd[HD_LAST_COMPLETION])
                s->hd[HD_LAST_COMPLETION] = completion;
            completion_s = now + latency;
            if (scripted) /* heuristics ignore feedback: no reward, no gate */
                continue;

            /* ---- LatencyReward (Eq. 1) ---- */
            double lat_units = latency / unit;
            lat_units = lat_units > 1e-9 ? lat_units : 1e-9;
            double inv = 1.0 / lat_units;
            double base = inv < max_reward ? inv : max_reward;
            double reward;
            if (eviction_time > 0.0) {
                double r = base - evict_coef * (eviction_time / unit);
                reward = r > 0.0 ? r : 0.0;
            } else {
                reward = base;
            }

            memcpy(s->pend_obs, obs, 48);
            memcpy(s->pend_key, obs_key, 24);
            ci[CI_PEND_ACTION] = action;
            cd[CD_PEND_REWARD] = reward;
            ci[CI_PENDING] = 1;
        }

        seen++;
        if (seen % train_interval == 0 && ci[CI_RB_NENT] >= batch_size) {
            int64_t k = 0; /* export FIFO order for the sampling CDF */
            for (int64_t sl = ci[CI_RB_HEAD]; sl >= 0; sl = s->rb_fnext[sl])
                s->rb_order[k++] = sl;
            ci[CI_ORDER_N] = k;
            ci[CI_I] = i + 1;
            ci[CI_RESUMED] = 0;
            ci[CI_STATUS] = ST_TRAIN_GATE;
            goto save_state;
        }
    }

    ci[CI_I] = n_total;
    ci[CI_STATUS] = ST_DONE;
    if (!scripted) { /* final FIFO order export (buffer._entries) */
        int64_t k = 0;
        for (int64_t sl = ci[CI_RB_HEAD]; sl >= 0; sl = s->rb_fnext[sl])
            s->rb_order[k++] = sl;
        ci[CI_ORDER_N] = k;
    }

save_state:
    ci[CI_SEEN] = seen;
    ci[CI_CLOCK] = clock;
    cd[CD_COMPLETION] = completion_s;
    if (!scripted) {
        s->rngst[0] = (uint64_t)(rng.state >> 64);
        s->rngst[1] = (uint64_t)rng.state;
        s->rngst[2] = (uint64_t)(rng.inc >> 64);
        s->rngst[3] = (uint64_t)rng.inc;
        s->rngst[4] = (uint64_t)rng.has_uint32;
        s->rngst[5] = (uint64_t)rng.uinteger;
    }
    return ci[CI_STATUS];
}
