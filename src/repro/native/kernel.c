/* Compiled tick engine: a C transliteration of the serial Python tick --
 * PolicyRun.step (sim/runner.py) over SibylAgent.place_begin /
 * place_commit / feedback (core/agent.py), FeatureExtractor.observe_keyed
 * (core/features.py), HybridStorageSystem.serve and its eviction
 * (hss/system.py), the SSDDevice / HDDDevice service_time models
 * (hss/ssd.py, hss/hdd.py), LatencyReward (core/reward.py) and
 * ExperienceBuffer.add (core/replay.py).
 *
 * Bit-identity contract with those sources:
 *   - Python's min(a, b) / max(a, b) become the exact conditionals the
 *     builtins evaluate (`b if b < a else a`), preserving ties.
 *   - Float expressions keep the source's association; constant-only
 *     subexpressions (seek_span, tr_unit, gc_over_denom) are seeded
 *     pre-reduced by the Python caller (engine_c.py) with the very
 *     expressions the device models evaluate.
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
 * end.  An action-memo miss runs the inference network's forward here
 * (c51_forward, the same routine as sib_c51_act) when the caller bound
 * that network's flat parameters at P_C51_PARAMS.  Work the kernel does
 * not do itself suspends the run instead: sib_run() returns
 * NEED_INFERENCE (a memo miss with P_C51_PARAMS NULL -- the DQN head, a
 * shape C51Network._compiled refuses, or an unresolved c51 row under
 * auto -> the caller runs best_action) or TRAIN_GATE (a training event
 * is due -> the caller drives train_begin/train_commit) and is
 * re-entered where it left off.
 *
 * A *scripted* lane (CI_SCRIPTED; script.py) made its decisions ahead of
 * the replay: the tick takes script[i], skips observe/memo/replay/reward
 * and the train gate, and runs the same serve block and do_evict as an
 * agent tick -- one copy of each, two callers.
 *
 * The same library carries more entry points, after the tick kernel:
 * sib_draw_trace(), the per-request draw loop of the synthetic trace
 * generator (traces/synthetic.py); sib_rnn_train() / sib_rnn_predict(),
 * RNN-HSS's Elman RNN (rl/rnn.py); and sib_c51_train() / sib_c51_act()
 * / sib_c51_targets() / sib_c51_greedy(), Sibyl's C51 network
 * (rl/c51.py).
 */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The ABI -- the P_, CI_, CD_, DD_, DI_, HI_, HD_ indices, the strides,
 * the ST_ status codes, the state struct S and sib_bind() -- is generated
 * from the table in abi.py (library.py renders it beside the build;
 * `python -m repro.native.abi` prints it). */
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
/* The C51 inference network's forward, defined with the network below. */
static int64_t c51_forward(const S *s, const int64_t *ci, const double *obs);

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

        /* ---- observe_keyed (features.FeatureExtractor._bins, all) ---- */
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
            if (action < 0) { /* memo miss: the inference network's forward */
                if (ci[CI_MEMO_N] >= ci[CI_MEMO_CAP]) {
                    ci[CI_ERR] = 1;
                    ci[CI_STATUS] = ST_ERROR;
                    ci[CI_I] = i;
                    goto save_state;
                }
                memo_stage(s, obs_key, obs);
                if (s->c51_params == NULL) { /* not bound: hand it to Python */
                    memcpy(s->obs_mail, obs, 48);
                    ci[CI_I] = i;
                    ci[CI_RESUMED] = 1;
                    ci[CI_STATUS] = ST_NEED_INFERENCE;
                    goto save_state;
                }
                action = c51_forward(s, ci, obs);
                ci[CI_FORWARDS]++;
                memo_commit(s, action);
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

/* ------------------------------------------ synthetic trace draw loop */
/* SyntheticTraceGenerator.generate's per-request loop (traces/
 * synthetic.py, the Python reference it must equal byte for byte) over
 * requests [CI_TG_BEGIN, CI_TG_END) of one phase.  Every draw goes
 * through NumPy's own sampler -- the C function Generator itself calls,
 * resolved from numpy.random._generator -- on the Generator's own
 * bitgen_t, in the Python loop's order.  So the stream, including the
 * bit generator's buffered 32-bit half-word that `integers` consumes,
 * is shared with the draws Python makes between phases (the
 * permutation, the write-burst coin), and nothing is re-implemented:
 * the trace is identical by construction.  The page of the current run
 * and the clock are carried across phases in CI_TG_PAGE / CD_TG_CLOCK. */
typedef double (*sp_uniform_t)(void *);
typedef int64_t (*sp_geometric_t)(void *, double);
typedef double (*sp_exponential_t)(void *, double);
typedef void (*sp_bounded_t)(void *, uint64_t, uint64_t, intptr_t, bool,
                             uint64_t *);

long long sib_draw_trace(void **p) {
    S s;
    sib_bind(&s, p);
    int64_t *ci = s.ci;
    double *cd = s.cd;
    void *bg = (void *)(uintptr_t)s.tg_fns[SP_BITGEN];
    sp_uniform_t uniform = (sp_uniform_t)(uintptr_t)s.tg_fns[SP_UNIFORM];
    sp_geometric_t geometric =
        (sp_geometric_t)(uintptr_t)s.tg_fns[SP_GEOMETRIC];
    sp_exponential_t exponential =
        (sp_exponential_t)(uintptr_t)s.tg_fns[SP_EXPONENTIAL];
    sp_bounded_t bounded = (sp_bounded_t)(uintptr_t)s.tg_fns[SP_BOUNDED_U64];

    const int64_t n_regions = ci[CI_TG_NREGIONS];
    /* rng.integers(0, span): numpy bounds by span - 1, Lemire, unmasked */
    const uint64_t span_max = (uint64_t)(ci[CI_TG_SPAN] - 1);
    const int sized = ci[CI_TG_SIZED] != 0;
    const double p_seq = cd[CD_TG_P_SEQ], p_write = cd[CD_TG_P_WRITE];
    const double geom_p = cd[CD_TG_GEOM_P], mean_gap = cd[CD_TG_MEAN_GAP];
    const double size_div = cd[CD_TG_SIZE_DIV];
    int64_t cur_page = ci[CI_TG_PAGE];
    double clock = cd[CD_TG_CLOCK];

    for (int64_t i = ci[CI_TG_BEGIN]; i < ci[CI_TG_END]; i++) {
        /* _request_size_pages: int(min(1 + geometric(p), 256)) */
        int64_t size = 1;
        if (sized) {
            int64_t g = geometric(bg, geom_p);
            size = g >= 255 ? 256 : 1 + g;
        }
        int64_t page;
        if (uniform(bg) < p_seq) {
            page = cur_page;
        } else {
            /* cdf.searchsorted(u, side="right") */
            double u = uniform(bg);
            int64_t lo = 0, hi = n_regions;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (u < s.tg_cdf[mid])
                    hi = mid;
                else
                    lo = mid + 1;
            }
            if (lo >= n_regions) { /* Python would raise an IndexError */
                ci[CI_ERR] = 1;
                ci[CI_I] = i;
                return ST_ERROR;
            }
            uint64_t offset;
            bounded(bg, 0, span_max, 1, false, &offset);
            page = s.tg_bases[s.tg_perm[lo]] + (int64_t)offset;
        }
        cur_page = page + size;
        uint8_t op = uniform(bg) < p_write ? 1 : 0;
        double gap = exponential(bg, mean_gap)
                     * (0.5 + 0.5 * (double)size / size_div);
        clock += gap;
        s.tg_ts[i] = clock;
        s.tg_op[i] = op;
        s.tg_page[i] = page;
        s.tg_size[i] = size;
    }
    ci[CI_TG_PAGE] = cur_page;
    cd[CD_TG_CLOCK] = clock;
    return ST_DONE;
}

/* --------------------------------------------- NumPy's own routines */
/* The two networks below (RNN-HSS's and Sibyl's) call what NumPy calls:
 * its OpenBLAS's cblas_dgemv / cblas_dgemm with NumPy's arguments, and
 * its float64 ufunc loops (the first d->d entry of the ufunc's
 * `functions` table, the one NumPy selects), called in place on the
 * whole array as the reference's out= calls are.  Both read them from
 * one routine vector (P_NP_FNS, indexed by NF_*; CI_BLAS_ILP64 for the
 * BLAS int width) through np_fns().  library.py resolves the vector
 * per entry-table row and handshakes each routine at each form and
 * length a caller's shape needs, once per process; np_pairwise below
 * is handshaken against np.add.reduce the same way.  This file is
 * built with -ffp-contract=off, so every other operation is one IEEE
 * rounding, as in NumPy's elementwise loops. */
typedef void (*np_gemv64_t)(int, int, int64_t, int64_t, double,
                            const double *, int64_t, const double *, int64_t,
                            double, double *, int64_t);
typedef void (*np_gemv32_t)(int, int, int32_t, int32_t, double,
                            const double *, int32_t, const double *, int32_t,
                            double, double *, int32_t);
typedef void (*np_gemm64_t)(int, int, int, int64_t, int64_t, int64_t, double,
                            const double *, int64_t, const double *, int64_t,
                            double, double *, int64_t);
typedef void (*np_gemm32_t)(int, int, int, int32_t, int32_t, int32_t, double,
                            const double *, int32_t, const double *, int32_t,
                            double, double *, int32_t);
typedef void (*np_loop_t)(char **, const intptr_t *, const intptr_t *,
                          void *);

enum {
    NP_ROW_MAJOR = 101,
    NP_COL_MAJOR = 102,
    NP_NO_TRANS = 111,
    NP_TRANS = 112
};

typedef struct {
    void *gemv, *gemm;
    int ilp64;
} np_blas_t;

typedef struct {
    np_loop_t fn;
    void *data;
} np_ufunc_t;

typedef struct {
    np_blas_t blas;
    np_ufunc_t tanh, exp, log;
} np_fns_t;

static np_ufunc_t np_ufunc(const uint64_t *fns, int fn) {
    np_ufunc_t u = {(np_loop_t)(uintptr_t)fns[fn],
                    (void *)(uintptr_t)fns[fn + 1]};
    return u;
}

/* The routine vector an entry point is handed; a routine its row does
 * not resolve is NULL and never called. */
static np_fns_t np_fns(const S *s) {
    const uint64_t *f = s->np_fns;
    np_fns_t n = {{(void *)(uintptr_t)f[NF_GEMV],
                   (void *)(uintptr_t)f[NF_GEMM], s->ci[CI_BLAS_ILP64] != 0},
                  np_ufunc(f, NF_TANH), np_ufunc(f, NF_EXP),
                  np_ufunc(f, NF_LOG)};
    return n;
}

/* y = x @ A over a (rows, cols) A: order NP_ROW_MAJOR with lda = cols
 * for C-ordered A, NP_COL_MAJOR with lda = rows for the transpose of a
 * C-ordered (cols, rows) array. */
static void np_gemv(const np_blas_t *b, int order, int64_t rows,
                    int64_t cols, const double *a, int64_t lda,
                    const double *x, double *y) {
    if (b->ilp64)
        ((np_gemv64_t)b->gemv)(order, NP_TRANS, rows, cols, 1.0, a, lda, x,
                               1, 0.0, y, 1);
    else
        ((np_gemv32_t)b->gemv)(order, NP_TRANS, (int32_t)rows,
                               (int32_t)cols, 1.0, a, (int32_t)lda, x, 1,
                               0.0, y, 1);
}

/* np.dot(x, W, out=y), W (rows, cols) C-ordered */
static void np_dot(const np_blas_t *b, const double *x, const double *w,
                   int64_t rows, int64_t cols, double *y) {
    memset(y, 0, (size_t)cols * sizeof(double));
    np_gemv(b, NP_ROW_MAJOR, rows, cols, w, cols, x, y);
}

/* np.dot(x, W.T, out=y), W (cols, rows) C-ordered */
static void np_dot_t(const np_blas_t *b, const double *x, const double *w,
                     int64_t rows, int64_t cols, double *y) {
    memset(y, 0, (size_t)cols * sizeof(double));
    np_gemv(b, NP_COL_MAJOR, rows, cols, w, rows, x, y);
}

/* np.matmul(op(A), op(B), out=C) for C-ordered (m, n) C: op(A) is (m, k)
 * -- A itself (lda k), or with ta = NP_TRANS the transpose of a C-ordered
 * (k, m) A (lda m) -- and op(B) likewise (k, n). */
static void np_gemm(const np_blas_t *b, int ta, int tb, int64_t m,
                    int64_t n, int64_t k, const double *a, int64_t lda,
                    const double *bm, int64_t ldb, double *c) {
    if (b->ilp64)
        ((np_gemm64_t)b->gemm)(NP_ROW_MAJOR, ta, tb, m, n, k, 1.0, a, lda,
                               bm, ldb, 0.0, c, n);
    else
        ((np_gemm32_t)b->gemm)(NP_ROW_MAJOR, ta, tb, (int32_t)m,
                               (int32_t)n, (int32_t)k, 1.0, a, (int32_t)lda,
                               bm, (int32_t)ldb, 0.0, c, (int32_t)n);
}

/* ufunc(a, out=a) */
static void np_inplace(np_ufunc_t u, double *a, int64_t n) {
    char *args[2] = {(char *)a, (char *)a};
    const intptr_t dims[1] = {(intptr_t)n};
    const intptr_t steps[2] = {sizeof(double), sizeof(double)};
    u.fn(args, dims, steps, u.data);
}

/* Two doubles at a time.  Each lane of an operation is the one IEEE
 * operation the scalar code makes on that element (-ffp-contract=off
 * keeps a multiply and an add apart here too), so the bytes are the
 * scalar code's; a v2d may sit at any 8-byte boundary. */
typedef double v2d __attribute__((vector_size(16), aligned(8), may_alias));
typedef int64_t v2i __attribute__((vector_size(16), aligned(8), may_alias));

/* mask ? yes : no, lane by lane (mask: a comparison's all-ones or zero) */
static inline v2d v2_select(v2i mask, v2d yes, v2d no) {
    return (v2d)(((v2i)yes & mask) | ((v2i)no & ~mask));
}

/* np.maximum.reduce of a contiguous run: NaN-propagating (the first
 * NaN).  The maximum does not depend on the order it is taken in, so it
 * is taken in four interleaved runs; only which of -0 and +0 comes back
 * can differ from NumPy's, and every caller subtracts it from the run
 * and exponentiates, where the two give the same bytes. */
static double np_max(const double *a, int64_t n) {
    double top = a[0];
    int nan = isnan(a[0]);
    int64_t k = 1;
    if (n >= 8) {
        v2d m0 = *(const v2d *)a, m1 = *(const v2d *)(a + 2);
        v2i seen = (m0 != m0) | (m1 != m1);
        for (k = 4; k + 4 <= n; k += 4) {
            const v2d x0 = *(const v2d *)(a + k);
            const v2d x1 = *(const v2d *)(a + k + 2);
            m0 = v2_select(x0 > m0, x0, m0);
            m1 = v2_select(x1 > m1, x1, m1);
            seen |= (x0 != x0) | (x1 != x1);
        }
        const double lo = m0[0] > m0[1] ? m0[0] : m0[1];
        const double hi = m1[0] > m1[1] ? m1[0] : m1[1];
        top = lo > hi ? lo : hi;
        nan = (seen[0] | seen[1]) != 0;
    }
    for (; k < n; k++) {
        top = a[k] > top ? a[k] : top;
        nan |= a[k] != a[k];
    }
    if (nan)
        for (k = 0;; k++)
            if (isnan(a[k]))
                return a[k];
    return top;
}

/* NumPy's pairwise sum of a contiguous run (DOUBLE_pairwise_sum):
 * sequential under eight terms, eight accumulators up to 128 (here
 * four two-lane ones, lane by lane the same sums), else the two halves,
 * split at a multiple of eight.  np.add.reduce over a row is +0 plus
 * this. */
static double np_pairwise(const double *a, int64_t n) {
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        v2d r0 = *(const v2d *)a, r1 = *(const v2d *)(a + 2);
        v2d r2 = *(const v2d *)(a + 4), r3 = *(const v2d *)(a + 6);
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += *(const v2d *)(a + i);
            r1 += *(const v2d *)(a + i + 2);
            r2 += *(const v2d *)(a + i + 4);
            r3 += *(const v2d *)(a + i + 6);
        }
        double res = ((r0[0] + r0[1]) + (r1[0] + r1[1]))
                     + ((r2[0] + r2[1]) + (r3[0] + r3[1]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return np_pairwise(a, n2) + np_pairwise(a + n2, n - n2);
}

/* a[k] -= x for a run (the head's shift by its maximum) */
static void v2_shift(double *a, int64_t n, double x) {
    const v2d xs = {x, x};
    int64_t k = 0;
    for (; k + 2 <= n; k += 2)
        *(v2d *)(a + k) -= xs;
    for (; k < n; k++)
        a[k] -= x;
}

/* a[k] /= y for a run (the head's normalisation) */
static void v2_scale(double *a, int64_t n, double y) {
    const v2d ys = {y, y};
    int64_t k = 0;
    for (; k + 2 <= n; k += 2)
        *(v2d *)(a + k) /= ys;
    for (; k < n; k++)
        a[k] /= y;
}

/* np.argmax: the first maximum, or the first NaN. */
static int64_t np_argmax(const double *a, int64_t n) {
    int64_t best = 0;
    double top = a[0];
    if (!isnan(top))
        for (int64_t j = 1; j < n; j++)
            if (!(a[j] <= top)) {
                top = a[j];
                best = j;
                if (isnan(top))
                    break;
            }
    return best;
}

/* Adam.step (rl/optim.py) on one flat vector: Python's float pow,
 * NumPy's float64 sqrt and divide; t is the step's count, already
 * incremented. */
static void adam_step(int64_t n, double *p, const double *g, double *m,
                      double *v, int64_t t, double lr, double b1, double b2,
                      double eps) {
    const double bias1 = 1.0 - pow(b1, (double)t);
    const double bias2 = 1.0 - pow(b2, (double)t);
    const double alpha = lr / bias1;
    const double inv_sqrt_bias2 = 1.0 / sqrt(bias2);
    const double c1 = 1.0 - b1, c2 = 1.0 - b2;
    const v2d b1s = {b1, b1}, c1s = {c1, c1}, b2s = {b2, b2}, c2s = {c2, c2};
    const v2d scales = {inv_sqrt_bias2, inv_sqrt_bias2}, epss = {eps, eps};
    const v2d alphas = {alpha, alpha};
    int64_t e = 0;
    for (; e + 2 <= n; e += 2) {
        const v2d grad = *(const v2d *)(g + e);
        v2d mv = *(v2d *)(m + e) * b1s;
        mv += c1s * grad;
        v2d vv = *(v2d *)(v + e) * b2s;
        vv += c2s * (grad * grad);
        *(v2d *)(m + e) = mv;
        *(v2d *)(v + e) = vv;
        v2d denom = {sqrt(vv[0]), sqrt(vv[1])};
        denom *= scales;
        denom += epss;
        v2d update = mv / denom;
        update *= alphas;
        *(v2d *)(p + e) -= update;
    }
    for (; e < n; e++) {
        m[e] *= b1;
        m[e] += c1 * g[e];
        v[e] *= b2;
        v[e] += c2 * (g[e] * g[e]);
        double denom = sqrt(v[e]);
        denom *= inv_sqrt_bias2;
        denom += eps;
        double update = m[e] / denom;
        update *= alpha;
        p[e] -= update;
    }
}

/* ------------------------------------------ RNN-HSS's Elman RNN (rl/rnn.py) */
/* ElmanRNN._forward / train_sequence (rl/rnn.py, the Python reference it
 * must equal byte for byte), one sequence after another, in the
 * reference's statement order, on the network's own arrays, through
 * NumPy's own routines above:
 *   - every np.dot and every row of the stacked np.matmul is a gemv
 *     call -- x @ W is (RowMajor, Trans, rows, cols, lda cols) and x @
 *     W.T is (ColMajor, Trans, rows, cols, lda rows) over W's C-ordered
 *     data; np.dot first zeroes its output, the matmul does not;
 *   - tanh and exp are NumPy's loops;
 *   - everything else is one IEEE operation per element: the residual
 *     adds, 1 - h^2, the outer products, the head's max, its sum
 *     (NumPy's sequential loop for under eight terms, from +0) and
 *     division, the step sums (np.add.reduce over a leading axis: +0,
 *     then each step in order), the clip and Adam.
 * The rnn row of library.ENTRIES resolves gemv, tanh and exp and lists
 * the forms and lengths a shape calls them at; ElmanRNN._refusal only
 * asks for shapes where every product is a gemv: no 1-wide layer
 * (np.dot takes scalar paths there), and under eight outputs. */
typedef struct {
    np_fns_t np;
    int64_t n_in, n_hid, n_out, cap;
    /* views into the flat parameters and gradients, as ElmanRNN's */
    double *w_xh, *w_hh, *b_h, *w_hy, *b_y;
    double *g_w_xh, *g_w_hh, *g_b_h, *g_w_hy, *g_b_y;
} rnn_t;

static void rnn_init(rnn_t *r, const S *s, const int64_t *ci) {
    r->np = np_fns(s);
    r->n_in = ci[CI_RNN_NIN];
    r->n_hid = ci[CI_RNN_NHID];
    r->n_out = ci[CI_RNN_NOUT];
    r->cap = ci[CI_RNN_CAP];
    const int64_t sizes[5] = {r->n_in * r->n_hid, r->n_hid * r->n_hid,
                              r->n_hid, r->n_hid * r->n_out, r->n_out};
    double **params[5] = {&r->w_xh, &r->w_hh, &r->b_h, &r->w_hy, &r->b_y};
    double **grads[5] = {&r->g_w_xh, &r->g_w_hh, &r->g_b_h, &r->g_w_hy,
                         &r->g_b_y};
    int64_t off = 0;
    for (int k = 0; k < 5; k++) {
        *params[k] = s->rnn_params + off;
        *grads[k] = s->rnn_grads + off;
        off += sizes[k];
    }
}

/* ElmanRNN._forward: hidden rows 1..T and the head's probabilities. */
static void rnn_forward(const rnn_t *r, const S *s, const double *seq,
                        int64_t steps) {
    const int64_t n_in = r->n_in, n_hid = r->n_hid, n_out = r->n_out;
    double *hidden = s->rnn_hidden, *recur = s->rnn_recur;
    double *probs = s->rnn_probs;
    for (int64_t t = 0; t < steps; t++) /* the stacked x_t @ W_xh */
        np_gemv(&r->np.blas, NP_ROW_MAJOR, n_in, n_hid, r->w_xh, n_hid,
                seq + t * n_in, hidden + (t + 1) * n_hid);
    for (int64_t t = 0; t < steps; t++) {
        double *h = hidden + (t + 1) * n_hid;
        np_dot(&r->np.blas, hidden + t * n_hid, r->w_hh, n_hid, n_hid, recur);
        for (int64_t j = 0; j < n_hid; j++)
            h[j] += recur[j];
        for (int64_t j = 0; j < n_hid; j++)
            h[j] += r->b_h[j];
        np_inplace(r->np.tanh, h, n_hid);
    }
    np_dot(&r->np.blas, hidden + steps * n_hid, r->w_hy, n_hid, n_out, probs);
    for (int64_t j = 0; j < n_out; j++)
        probs[j] += r->b_y[j];
    const double top = np_max(probs, n_out);
    for (int64_t j = 0; j < n_out; j++)
        probs[j] -= top;
    np_inplace(r->np.exp, probs, n_out);
    double total = 0.0;
    for (int64_t j = 0; j < n_out; j++)
        total += probs[j];
    for (int64_t j = 0; j < n_out; j++)
        probs[j] /= total;
}

/* The rest of ElmanRNN.train_sequence, after _forward: the head's and
 * the truncated-BPTT gradients, the clip, and Adam.step. */
static void rnn_backward(const rnn_t *r, S *s, int64_t *ci, const double *cd,
                         const double *seq, int64_t steps, int64_t label,
                         int64_t bptt) {
    const int64_t n_in = r->n_in, n_hid = r->n_hid, n_out = r->n_out;
    const double *hidden = s->rnn_hidden;
    double *dlogits = s->rnn_probs, *dh = s->rnn_dh;
    double *dtanh = s->rnn_dtanh, *dz = s->rnn_dz;
    dlogits[label] -= 1.0;
    const double *h_last = hidden + steps * n_hid;
    for (int64_t i = 0; i < n_hid; i++)
        for (int64_t j = 0; j < n_out; j++)
            r->g_w_hy[i * n_out + j] = h_last[i] * dlogits[j];
    for (int64_t j = 0; j < n_out; j++)
        r->g_b_y[j] = dlogits[j];
    np_dot_t(&r->np.blas, dlogits, r->w_hy, n_out, n_hid, dh);
    const int64_t last = steps - 1;
    const int64_t k_max = bptt < steps ? (bptt > 0 ? bptt : 0) : steps;
    const int64_t n_flat = n_in * n_hid + n_hid * n_hid + n_hid
                           + n_hid * n_out + n_out;
    if (k_max) {
        for (int64_t t = 0; t <= last; t++) {
            const double *h = hidden + (t + 1) * n_hid;
            double *d = dtanh + t * n_hid;
            for (int64_t j = 0; j < n_hid; j++)
                d[j] = h[j] * h[j];
            for (int64_t j = 0; j < n_hid; j++)
                d[j] = 1.0 - d[j];
        }
        for (int64_t j = 0; j < n_hid; j++)
            dz[j] = dh[j] * dtanh[last * n_hid + j];
        for (int64_t k = 1; k < k_max; k++) {
            np_dot_t(&r->np.blas, dz + (k - 1) * n_hid, r->w_hh, n_hid, n_hid,
                     dh);
            for (int64_t j = 0; j < n_hid; j++)
                dz[k * n_hid + j] = dh[j] * dtanh[(last - k) * n_hid + j];
        }
        /* outer[k] = inputs[last - k] (x) dz[k], then grad = the sum */
        for (int pass = 0; pass < 2; pass++) {
            const int64_t width = pass ? n_hid : n_in;
            const double *inputs = pass ? hidden : seq;
            double *outer = pass ? s->rnn_outer_hh : s->rnn_outer_xh;
            double *grad = pass ? r->g_w_hh : r->g_w_xh;
            const int64_t block = width * n_hid;
            for (int64_t k = 0; k < k_max; k++) {
                const double *in = inputs + (last - k) * width;
                for (int64_t i = 0; i < width; i++)
                    for (int64_t j = 0; j < n_hid; j++)
                        outer[k * block + i * n_hid + j] =
                            in[i] * dz[k * n_hid + j];
            }
            for (int64_t e = 0; e < block; e++)
                grad[e] = 0.0;
            for (int64_t k = 0; k < k_max; k++)
                for (int64_t e = 0; e < block; e++)
                    grad[e] += outer[k * block + e];
        }
        for (int64_t j = 0; j < n_hid; j++)
            r->g_b_h[j] = 0.0;
        for (int64_t k = 0; k < k_max; k++)
            for (int64_t j = 0; j < n_hid; j++)
                r->g_b_h[j] += dz[k * n_hid + j];
    } else { /* nothing propagated back in time: only the head learns */
        for (int64_t e = 0; e < n_flat - (n_hid * n_out + n_out); e++)
            s->rnn_grads[e] = 0.0;
    }
    double *g = s->rnn_grads;
    for (int64_t e = 0; e < n_flat; e++) { /* np.clip(g, -5.0, 5.0) */
        double x = g[e];
        if (!isnan(x))
            x = x > -5.0 ? x : -5.0;
        if (!isnan(x))
            x = x < 5.0 ? x : 5.0;
        g[e] = x;
    }
    adam_step(n_flat, s->rnn_params, g, s->rnn_m, s->rnn_v,
              ++ci[CI_RNN_ADAM_T], cd[CD_RNN_LR], cd[CD_RNN_BETA1],
              cd[CD_RNN_BETA2], cd[CD_RNN_EPS]);
}

static int rnn_fits(const int64_t *ci, int64_t steps) {
    return steps >= 1 && steps < ci[CI_RNN_CAP] && ci[CI_RNN_NIN] >= 2
           && ci[CI_RNN_NHID] >= 2 && ci[CI_RNN_NOUT] >= 2
           && ci[CI_RNN_NOUT] < 8;
}

/* ElmanRNN.train_sequence over CI_RNN_NSEQ sequences of CI_RNN_STEPS
 * steps each (P_RNN_SEQ, one after another) with labels P_RNN_LABELS. */
long long sib_rnn_train(void **p) {
    S s;
    sib_bind(&s, p);
    int64_t *ci = s.ci;
    const int64_t steps = ci[CI_RNN_STEPS];
    if (!rnn_fits(ci, steps)) {
        ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    rnn_t r;
    rnn_init(&r, &s, ci);
    for (int64_t q = 0; q < ci[CI_RNN_NSEQ]; q++) {
        const int64_t label = s.rnn_labels[q];
        if (label < 0 || label >= r.n_out) {
            ci[CI_ERR] = 2;
            ci[CI_I] = q;
            return ST_ERROR;
        }
        const double *seq = s.rnn_seq + q * steps * r.n_in;
        rnn_forward(&r, &s, seq, steps);
        rnn_backward(&r, &s, ci, s.cd, seq, steps, label, ci[CI_RNN_BPTT]);
    }
    return ST_DONE;
}

/* ElmanRNN.predict: argmax of one sequence's probabilities (NumPy's
 * argmax: the first maximum, or the first NaN) into CI_RNN_CLASS. */
long long sib_rnn_predict(void **p) {
    S s;
    sib_bind(&s, p);
    int64_t *ci = s.ci;
    const int64_t steps = ci[CI_RNN_STEPS];
    if (!rnn_fits(ci, steps)) {
        ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    rnn_t r;
    rnn_init(&r, &s, ci);
    rnn_forward(&r, &s, s.rnn_seq, steps);
    ci[CI_RNN_CLASS] = np_argmax(s.rnn_probs, r.n_out);
    return ST_DONE;
}

/* ------------------------------------------ Sibyl's C51 network (rl/c51.py) */
/* C51Network.best_action, train_batches, precompute_targets and
 * best_actions (rl/c51.py, the NumPy reference they must equal byte for
 * byte) over FeedForwardNetwork's
 * Dense layers (rl/network.py) and Adam.step, in the reference's
 * statement order, on the network's own arrays -- the flat parameters,
 * gradients and Adam moments, each Dense layer's training buffers and
 * the step's workspace arrays -- through NumPy's own routines above:
 *   - every np.matmul of a training step or a batched pass is the gemm
 *     NumPy makes, a transposed view (x.T, W.T) passed as the C-ordered
 *     array under it with the Trans flag; each np.dot of a forward is
 *     np.dot's zeroed gemv, and the head's pmfs @ support the matmul's
 *     (ColMajor, Trans, n_atoms, n_actions) gemv, one per row;
 *   - tanh, exp and log are NumPy's loops, at the reference's lengths;
 *   - np.add.reduce keeps NumPy's order: along a row of atoms +0 plus
 *     np_pairwise, down the batch axis +0 then row by row;
 *   - everything else is one IEEE operation per element, signed zeros
 *     included, the long elementwise passes two elements at a time
 *     (v2d: lane by lane the same operation);
 *   - the target pass projects row by row (c51_project).
 * The c51 row of library.ENTRIES resolves gemv, gemm, tanh, exp and log
 * and lists the forms and lengths a shape calls them at (a training
 * batch, or the batched passes at fixed row counts, adds its own);
 * C51Network._refusal only asks for swish (beta 1)
 * hidden layers under an identity head, Adam to train, and shapes where
 * every product is a BLAS call: no 1-wide layer, two actions or more,
 * and batches of two rows or more, to train or in a batched pass. */
typedef struct {
    np_fns_t np;
    int64_t n_layers, n_act, n_atoms, n_flat;
    const int64_t *dims; /* n_layers + 1 widths, observation first */
} c51_t;

/* 0 unless the widths are a shape C51Network._refusal accepts. */
static int c51_init(c51_t *c, const S *s, const int64_t *ci) {
    c->np = np_fns(s);
    c->n_layers = ci[CI_C51_NLAYERS];
    c->n_act = ci[CI_C51_NACT];
    c->n_atoms = ci[CI_C51_NATOMS];
    c->dims = s->c51_dims;
    c->n_flat = 0;
    if (c->n_layers < 1 || c->n_act < 2 || c->n_atoms < 2
        || c->dims[c->n_layers] != c->n_act * c->n_atoms)
        return 0;
    for (int64_t j = 0; j < c->n_layers; j++) {
        if (c->dims[j] < 2)
            return 0;
        c->n_flat += c->dims[j] * c->dims[j + 1] + c->dims[j + 1];
    }
    return 1;
}

/* C51Network.best_action on one observation: forward_1d (np.dot, the
 * bias, Swish.forward_inplace), then the head's shift by each action's
 * maximum, exp, expected value over the support and argmax.  scratch
 * holds every layer's output, then the sigmoid, the Q-values and the
 * pmf sums. */
static int64_t c51_act(const c51_t *c, const double *params,
                       const double *support, const double *obs,
                       double *scratch) {
    const int64_t n_layers = c->n_layers, n_act = c->n_act;
    const int64_t n_atoms = c->n_atoms;
    int64_t total = 0, widest = 0;
    for (int64_t j = 1; j <= n_layers; j++) {
        total += c->dims[j];
        widest = c->dims[j] > widest ? c->dims[j] : widest;
    }
    double *sig = scratch + total, *q = sig + widest, *sums = q + n_act;
    const double *x = obs, *p = params;
    double *z = scratch;
    for (int64_t j = 0; j < n_layers; j++) {
        const int64_t n_in = c->dims[j], n_out = c->dims[j + 1];
        np_dot(&c->np.blas, x, p, n_in, n_out, z);
        p += n_in * n_out;
        for (int64_t k = 0; k < n_out; k++)
            z[k] += p[k];
        p += n_out;
        if (j < n_layers - 1) { /* swish: z * (0.5 * (1 + tanh(z / 2))) */
            for (int64_t k = 0; k < n_out; k++)
                sig[k] = z[k] * 0.5;
            np_inplace(c->np.tanh, sig, n_out);
            for (int64_t k = 0; k < n_out; k++) {
                sig[k] += 1.0;
                sig[k] *= 0.5;
                z[k] *= sig[k];
            }
        }
        x = z;
        z += n_out;
    }
    double *logits = z - c->dims[n_layers];
    for (int64_t a = 0; a < n_act; a++) {
        double *row = logits + a * n_atoms;
        const double top = np_max(row, n_atoms);
        for (int64_t k = 0; k < n_atoms; k++)
            row[k] -= top;
    }
    np_inplace(c->np.exp, logits, n_act * n_atoms);
    memset(q, 0, (size_t)n_act * sizeof(double));
    np_gemv(&c->np.blas, NP_COL_MAJOR, n_atoms, n_act, logits, n_atoms,
            support, q);
    for (int64_t a = 0; a < n_act; a++)
        sums[a] = 0.0 + np_pairwise(logits + a * n_atoms, n_atoms);
    for (int64_t a = 0; a < n_act; a++)
        q[a] /= sums[a];
    return np_argmax(q, n_act);
}

/* sib_run's memo-miss forward: best_action of the inference network
 * bound at P_C51_PARAMS (C51Network._compiled accepted it). */
static int64_t c51_forward(const S *s, const int64_t *ci, const double *obs) {
    c51_t c;
    c51_init(&c, s, ci);
    return c51_act(&c, s->c51_params, s->c51_support, obs, s->c51_scratch);
}

/* Layer j's training buffer `which` (CL_Z, CL_ACT, CL_GRAD_IN). */
static double *c51_buffer(const S *s, int64_t j, int which) {
    return (double *)(uintptr_t)s->c51_layers[j * CL_LEN + which];
}

/* Layer j of a batched forward on `rows` rows of x, W at w and the bias
 * after it -- Dense.forward(train=True) and forward_scratch alike: the
 * gemm into z and the bias; on a hidden layer Swish, its sigmoid into
 * sig (0.5 * (1 + tanh(z / 2))) and z * sig into a, which may be z
 * itself (forward_inplace).  Returns the layer's output. */
static const double *c51_dense(const c51_t *c, int64_t j, const double *w,
                               const double *x, int64_t rows, double *z,
                               double *sig, double *a) {
    const int64_t n_in = c->dims[j], n_out = c->dims[j + 1];
    const int64_t size = rows * n_out;
    const double *b = w + n_in * n_out;
    np_gemm(&c->np.blas, NP_NO_TRANS, NP_NO_TRANS, rows, n_out, n_in, x, n_in,
            w, n_out, z);
    const int hidden = j < c->n_layers - 1;
    const v2d half = {0.5, 0.5}, one = {1.0, 1.0};
    for (int64_t r = 0; r < rows; r++) {
        double *row = z + r * n_out, *half_row = hidden ? sig + r * n_out : NULL;
        int64_t k = 0;
        for (; k + 2 <= n_out; k += 2) {
            const v2d v = *(v2d *)(row + k) + *(const v2d *)(b + k);
            *(v2d *)(row + k) = v;
            if (hidden) /* Swish: the sigmoid, then a */
                *(v2d *)(half_row + k) = v * half;
        }
        for (; k < n_out; k++) {
            row[k] += b[k];
            if (hidden)
                half_row[k] = row[k] * 0.5;
        }
    }
    if (!hidden)
        return z;
    np_inplace(c->np.tanh, sig, size);
    int64_t e = 0;
    for (; e + 2 <= size; e += 2) {
        v2d v = *(v2d *)(sig + e) + one;
        v *= half;
        *(v2d *)(sig + e) = v;
        *(v2d *)(a + e) = *(const v2d *)(z + e) * v;
    }
    for (; e < size; e++) {
        sig[e] += 1.0;
        sig[e] *= 0.5;
        a[e] = z[e] * sig[e];
    }
    return a;
}

/* One step of C51Network.train_batches on rows [0, batch) of obs, acts
 * and target: FeedForwardNetwork.forward(train=True), the softmax
 * cross-entropy on each row's chosen action (its gradient scattered into
 * the zeroed grad, its value into ce), FeedForwardNetwork.backward;
 * Adam follows in the caller. */
static void c51_step(const c51_t *c, S *s, const double *obs,
                     const int64_t *acts, const double *target, double *ce,
                     int64_t batch) {
    const int64_t n_layers = c->n_layers, n_act = c->n_act;
    const int64_t n_atoms = c->n_atoms, cells = batch * n_atoms;
    const int64_t *dims = c->dims;
    const double *x = obs;
    int64_t off = 0;
    for (int64_t j = 0; j < n_layers; j++) { /* Dense.forward(train=True) */
        /* a hidden layer's _act_scratch: a, then the sigmoid */
        double *a = j < n_layers - 1 ? c51_buffer(s, j, CL_ACT) : NULL;
        x = c51_dense(c, j, s->c51_params + off, x, batch,
                      c51_buffer(s, j, CL_Z), a ? a + batch * dims[j + 1] : NULL,
                      a);
        off += dims[j] * dims[j + 1] + dims[j + 1];
    }
    /* The head, on each row's picked action only: the gather and the
     * shift by the row's maximum; exp; the normalisation, its gradient
     * (soft - target) / batch scattered into the zeroed grad, and the
     * clamp; log; the cross-entropy.  Elementwise passes of the
     * reference are fused per element, which changes no rounding. */
    double *soft = s->c51_soft, *work = s->c51_work, *grad = s->c51_grad;
    const int64_t width = n_act * n_atoms;
    for (int64_t r = 0; r < batch; r++) {
        const double *logits = x + (acts[r] + r * n_act) * n_atoms;
        double *row = soft + r * n_atoms;
        memcpy(row, logits, (size_t)n_atoms * sizeof(double));
        v2_shift(row, n_atoms, np_max(logits, n_atoms));
    }
    np_inplace(c->np.exp, soft, cells);
    /* x / batch; for a power of two, x * (1 / batch) is the same
     * number, exactly rounded once, without a division */
    const double rows = (double)batch;
    const int exact = (batch & (batch - 1)) == 0;
    const double inv_rows = 1.0 / rows;
    const v2d by = {exact ? inv_rows : rows, exact ? inv_rows : rows};
    const v2d tiny = {1e-12, 1e-12};
    for (int64_t r = 0; r < batch; r++) {
        double *row = soft + r * n_atoms, *clamp = work + r * n_atoms;
        const double *want = target + r * n_atoms;
        double *sample = grad + r * width;
        double *picked = sample + acts[r] * n_atoms;
        memset(sample, 0, (size_t)width * sizeof(double));
        const double total = 0.0 + np_pairwise(row, n_atoms);
        const v2d totals = {total, total};
        int64_t k = 0;
        for (; k + 2 <= n_atoms; k += 2) {
            const v2d p = *(v2d *)(row + k) / totals;
            const v2d diff = p - *(const v2d *)(want + k);
            *(v2d *)(row + k) = p;
            *(v2d *)(picked + k) = exact ? diff * by : diff / by;
            *(v2d *)(clamp + k) = v2_select((p >= tiny) | (p != p), p,
                                            tiny);
        }
        for (; k < n_atoms; k++) {
            const double p = row[k] / total;
            row[k] = p;
            picked[k] = exact ? (p - want[k]) * inv_rows
                              : (p - want[k]) / rows;
            clamp[k] = p >= 1e-12 || isnan(p) ? p : 1e-12;
        }
    }
    np_inplace(c->np.log, work, cells);
    for (int64_t r = 0; r < batch; r++) {
        double *row = work + r * n_atoms;
        const double *want = target + r * n_atoms;
        int64_t k = 0;
        for (; k + 2 <= n_atoms; k += 2)
            *(v2d *)(row + k) *= *(const v2d *)(want + k);
        for (; k < n_atoms; k++)
            row[k] *= want[k];
        ce[r] = 0.0 + np_pairwise(row, n_atoms);
    }
    /* FeedForwardNetwork.backward: Dense.backward from the head down */
    const double *grad_out = grad;
    for (int64_t j = n_layers - 1; j >= 0; j--) {
        const int64_t n_in = dims[j], n_out = dims[j + 1];
        const int64_t size = batch * n_out;
        off -= n_in * n_out + n_out;
        const double *w = s->c51_params + off;
        double *gw = s->c51_grads + off, *gb = gw + n_in * n_out;
        const double *grad_z = grad_out;
        if (j < n_layers - 1) { /* Swish.backward_train, into z */
            double *z = c51_buffer(s, j, CL_Z);
            const double *a = c51_buffer(s, j, CL_ACT), *sig = a + size;
            const v2d one = {1.0, 1.0};
            int64_t e = 0;
            for (; e + 2 <= size; e += 2) {
                v2d v = one - *(const v2d *)(sig + e);
                v *= *(const v2d *)(a + e);
                v += *(const v2d *)(sig + e);
                *(v2d *)(z + e) = v * *(const v2d *)(grad_out + e);
            }
            for (; e < size; e++) {
                z[e] = 1.0 - sig[e];
                z[e] *= a[e];
                z[e] += sig[e];
                z[e] *= grad_out[e];
            }
            grad_z = z;
        }
        const double *inputs = j ? c51_buffer(s, j - 1, CL_ACT) : obs;
        np_gemm(&c->np.blas, NP_TRANS, NP_NO_TRANS, n_in, n_out, batch, inputs,
                n_in, grad_z, n_out, gw);
        for (int64_t k = 0; k < n_out; k++)
            gb[k] = 0.0;
        for (int64_t r = 0; r < batch; r++) {
            const double *row = grad_z + r * n_out;
            int64_t k = 0;
            for (; k + 2 <= n_out; k += 2)
                *(v2d *)(gb + k) += *(const v2d *)(row + k);
            for (; k < n_out; k++)
                gb[k] += row[k];
        }
        if (j) {
            double *grad_in = c51_buffer(s, j, CL_GRAD_IN);
            np_gemm(&c->np.blas, NP_NO_TRANS, NP_TRANS, batch, n_in, n_out,
                    grad_z, n_out, w, n_out, grad_in);
            grad_out = grad_in;
        }
    }
}

/* C51Network.train_batches: CI_C51_STEPS steps of CI_C51_BATCH rows
 * each, P_C51_OBS / P_C51_ACTIONS / P_C51_TARGETS one after another,
 * each step's per-row cross-entropies into P_C51_CE, Adam after each.
 * Every action is checked before the first update. */
long long sib_c51_train(void **p) {
    S s;
    sib_bind(&s, p);
    int64_t *ci = s.ci;
    const double *cd = s.cd;
    c51_t c;
    const int64_t batch = ci[CI_C51_BATCH], steps = ci[CI_C51_STEPS];
    if (!c51_init(&c, &s, ci) || batch < 2 || steps < 0) {
        ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    for (int64_t r = 0; r < steps * batch; r++)
        if (s.c51_actions[r] < 0 || s.c51_actions[r] >= c.n_act) {
            ci[CI_ERR] = 2;
            ci[CI_I] = r;
            return ST_ERROR;
        }
    const int64_t n_obs = c.dims[0];
    for (int64_t i = 0; i < steps; i++) {
        c51_step(&c, &s, s.c51_obs + i * batch * n_obs,
                 s.c51_actions + i * batch,
                 s.c51_targets + i * batch * c.n_atoms, s.c51_ce + i * batch,
                 batch);
        adam_step(c.n_flat, s.c51_params, s.c51_grads, s.c51_m, s.c51_v,
                  ++ci[CI_C51_ADAM_T], cd[CD_C51_LR], cd[CD_C51_BETA1],
                  cd[CD_C51_BETA2], cd[CD_C51_EPS]);
    }
    return ST_DONE;
}

/* C51Network.best_action of the observation at P_C51_OBS, into
 * CI_C51_ACTION. */
long long sib_c51_act(void **p) {
    S s;
    sib_bind(&s, p);
    c51_t c;
    if (!c51_init(&c, &s, s.ci) || s.c51_params == NULL) {
        s.ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    s.ci[CI_C51_ACTION] = c51_act(&c, s.c51_params, s.c51_support, s.c51_obs,
                                  s.c51_scratch);
    return ST_DONE;
}

/* ---------------------------------------------- the batched passes */
/* P_C51_PASS, carved for `rows` rows: forward_scratch's two layer
 * buffers and its sigmoid (rows x the widest layer each), the Q-values
 * (rows x n_act), and a projected row's atom positions and upper weights
 * (n_atoms each); rl/c51.py sizes the array to match. */
typedef struct {
    double *z[2], *sig, *q, *pos, *upper;
} c51_pass_t;

static c51_pass_t c51_pass(const c51_t *c, double *scratch, int64_t rows) {
    int64_t widest = 0;
    for (int64_t j = 1; j <= c->n_layers; j++)
        widest = c->dims[j] > widest ? c->dims[j] : widest;
    c51_pass_t p;
    p.z[0] = scratch;
    p.z[1] = p.z[0] + rows * widest;
    p.sig = p.z[1] + rows * widest;
    p.q = p.sig + rows * widest;
    p.pos = p.q + rows * c->n_act;
    p.upper = p.pos + c->n_atoms;
    return p;
}

/* C51Network._greedy on rows [0, rows) of obs, up to the argmax:
 * forward_scratch (layer j writes buffer j % 2, in place through
 * Swish), then the head -- each action's maximum subtracted, exp over
 * the whole array, each action's atoms summed (+0 plus the pairwise
 * sum) and divided by, and pmfs @ support one row at a time into q.
 * Returns the pmfs, (rows, n_act, n_atoms). */
static double *c51_pmfs(const c51_t *c, const double *params,
                        const double *support, const double *obs,
                        int64_t rows, const c51_pass_t *p) {
    const int64_t n_act = c->n_act, n_atoms = c->n_atoms;
    const double *x = obs, *w = params;
    for (int64_t j = 0; j < c->n_layers; j++) {
        double *z = p->z[j % 2];
        x = c51_dense(c, j, w, x, rows, z, p->sig, z);
        w += c->dims[j] * c->dims[j + 1] + c->dims[j + 1];
    }
    double *pmfs = p->z[(c->n_layers - 1) % 2];
    const int64_t groups = rows * n_act;
    for (int64_t g = 0; g < groups; g++) {
        double *row = pmfs + g * n_atoms;
        v2_shift(row, n_atoms, np_max(row, n_atoms));
    }
    np_inplace(c->np.exp, pmfs, groups * n_atoms);
    for (int64_t g = 0; g < groups; g++) {
        double *row = pmfs + g * n_atoms;
        v2_scale(row, n_atoms, 0.0 + np_pairwise(row, n_atoms));
    }
    for (int64_t r = 0; r < rows; r++) {
        double *q = p->q + r * n_act;
        memset(q, 0, (size_t)n_act * sizeof(double));
        np_gemv(&c->np.blas, NP_COL_MAJOR, n_atoms, n_act,
                pmfs + r * n_act * n_atoms, n_atoms, support, q);
    }
    return pmfs;
}

/* project_distribution on one row: the pmf `probs` of the row's greedy
 * next action, bootstrapped through `scale` (the discount, 0 for a
 * terminal row) and shifted by `reward`.  Each atom's Bellman position
 * r + scale * z_k is clipped to the support (np.clip: a bound replaces
 * only what lies strictly beyond it) and turned into a fractional atom
 * index b, into pos; then split between floor(b) and floor(b) + 1
 * (clipped into range), the two weights summed as np.bincount sums them
 * -- into zeroed rows in atom order, the lower into `out`, the upper
 * into `upper` -- and the rows added.  0 when an index would fall
 * outside the support (a NaN reward, which the caller never passes). */
static int c51_project(const double *probs, double reward, double scale,
                       const double *support, int64_t n_atoms, double *out,
                       const c51_pass_t *p) {
    const double v_min = support[0], v_max = support[n_atoms - 1];
    const double delta_z = (v_max - v_min) / (double)(n_atoms - 1);
    double *pos = p->pos, *upper = p->upper;
    const v2d scales = {scale, scale}, rewards = {reward, reward};
    const v2d lows = {v_min, v_min}, highs = {v_max, v_max};
    const v2d steps = {delta_z, delta_z};
    int64_t k = 0;
    for (; k + 2 <= n_atoms; k += 2) {
        v2d b = scales * *(const v2d *)(support + k);
        b += rewards;
        b = v2_select(b < lows, lows, b);
        b = v2_select(b > highs, highs, b);
        b -= lows;
        *(v2d *)(pos + k) = b / steps;
    }
    for (; k < n_atoms; k++) {
        double b = scale * support[k];
        b += reward;
        b = b < v_min ? v_min : b;
        b = b > v_max ? v_max : b;
        b -= v_min;
        pos[k] = b / delta_z;
    }
    memset(out, 0, (size_t)n_atoms * sizeof(double));
    memset(upper, 0, (size_t)n_atoms * sizeof(double));
    for (k = 0; k < n_atoms; k++) {
        const double b = pos[k];
        if (!(b >= 0.0 && b < (double)n_atoms))
            return 0;
        const int64_t lo = (int64_t)b;
        const int64_t hi = lo + 1 < n_atoms - 1 ? lo + 1 : n_atoms - 1;
        const double w_upper = (b - (double)lo) * probs[k];
        out[lo] += probs[k] - w_upper;
        upper[hi] += w_upper;
    }
    for (k = 0; k + 2 <= n_atoms; k += 2)
        *(v2d *)(out + k) += *(const v2d *)(upper + k);
    for (; k < n_atoms; k++)
        out[k] += upper[k];
    return 1;
}

/* The checks both passes make: a shape C51Network._refusal accepts,
 * bound parameters, two rows or more. */
static int c51_pass_init(c51_t *c, const S *s) {
    return c51_init(c, s, s->ci) && s->c51_params != NULL
           && s->ci[CI_C51_ROWS] >= 2;
}

/* C51Network.precompute_targets of CI_C51_ROWS transitions with the
 * bound network as the target: its greedy pass over the next
 * observations at P_C51_OBS, each row's greedy pmf, and its projection
 * with the row's reward (P_C51_REWARDS), terminal flag (P_C51_DONES,
 * NULL: none) and CD_C51_DISCOUNT, into P_C51_PROJ. */
long long sib_c51_targets(void **p) {
    S s;
    sib_bind(&s, p);
    c51_t c;
    if (!c51_pass_init(&c, &s)) {
        s.ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    const int64_t rows = s.ci[CI_C51_ROWS], n_act = c.n_act;
    const int64_t n_atoms = c.n_atoms;
    const double discount = s.cd[CD_C51_DISCOUNT];
    const c51_pass_t pass = c51_pass(&c, s.c51_pass, rows);
    const double *pmfs = c51_pmfs(&c, s.c51_params, s.c51_support, s.c51_obs,
                                  rows, &pass);
    for (int64_t r = 0; r < rows; r++) {
        const int64_t best = np_argmax(pass.q + r * n_act, n_act);
        const double scale = s.c51_dones && s.c51_dones[r] ? 0.0 : discount;
        if (!c51_project(pmfs + (r * n_act + best) * n_atoms,
                         s.c51_rewards[r], scale, s.c51_support, n_atoms,
                         s.c51_proj + r * n_atoms, &pass)) {
            s.ci[CI_ERR] = 3;
            s.ci[CI_I] = r;
            return ST_ERROR;
        }
    }
    return ST_DONE;
}

/* C51Network.best_actions of the CI_C51_ROWS observations at P_C51_OBS,
 * into P_C51_BEST (np.argmax: the first maximum, or the first NaN). */
long long sib_c51_greedy(void **p) {
    S s;
    sib_bind(&s, p);
    c51_t c;
    if (!c51_pass_init(&c, &s)) {
        s.ci[CI_ERR] = 1;
        return ST_ERROR;
    }
    const int64_t rows = s.ci[CI_C51_ROWS];
    const c51_pass_t pass = c51_pass(&c, s.c51_pass, rows);
    c51_pmfs(&c, s.c51_params, s.c51_support, s.c51_obs, rows, &pass);
    for (int64_t r = 0; r < rows; r++)
        s.c51_best[r] = np_argmax(pass.q + r * c.n_act, c.n_act);
    return ST_DONE;
}
