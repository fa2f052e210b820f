package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"goldfinger/internal/core"
	"goldfinger/internal/dataset"
	"goldfinger/internal/knn"
	"goldfinger/internal/profile"
)

// The corpus shape every workload uses: the paper's 1024-bit SHFs and
// k=10 neighborhoods over the ML10M-shaped synthetic generator.
const (
	shfBits = 1024
	graphK  = 10
)

// corpus is one seed's generated input: n corpus users plus a held-out
// pool drawn from the same generator, used for queries, fresh inserts
// and overwrite payloads.
type corpus struct {
	packed   *core.PackedCorpus
	fps      []core.Fingerprint // corpus users, index = dense id
	held     []core.Fingerprint // held-out users
	profiles []profile.Profile  // corpus users' native profiles
	bodies   [][]byte           // wire-encoded corpus fingerprints
	hbody    [][]byte           // wire-encoded held-out fingerprints
	shape    corpusShape

	packS float64 // PackProfiles' wall time
}

// makeCorpus generates and packs a corpus of n users plus held held-out
// users from seed. The same seed always yields the same corpus.
func makeCorpus(n, held int, seed int64) (*corpus, error) {
	start := time.Now()
	scale := float64(n+held+2) / float64(dataset.ML10M.Users)
	ds := dataset.Generate(dataset.ML10M, scale, seed)
	if len(ds.Profiles) < n+held {
		return nil, fmt.Errorf("generator produced %d users, need %d", len(ds.Profiles), n+held)
	}
	scheme, err := core.NewScheme(shfBits, uint64(seed))
	if err != nil {
		return nil, err
	}

	start = time.Now()
	packed := scheme.PackProfiles(ds.Profiles[:n], 0)
	packS := since(start)

	c := &corpus{
		packed:   packed,
		fps:      make([]core.Fingerprint, n),
		profiles: ds.Profiles[:n],
		held:     scheme.FingerprintAll(ds.Profiles[n : n+held]),
		shape:    corpusShape{Generator: "dataset.Generate(ML10M)", Users: n, HeldOut: held, Bits: shfBits, K: graphK},
		packS:    packS,
	}
	for i := range c.fps {
		c.fps[i] = packed.Fingerprint(i)
	}
	return c, nil
}

// encodeBodies wire-encodes every fingerprint once, so the generator
// spends no time encoding while it measures.
func (c *corpus) encodeBodies() error {
	enc := func(fps []core.Fingerprint) ([][]byte, error) {
		out := make([][]byte, len(fps))
		for i, fp := range fps {
			var buf bytes.Buffer
			if err := core.WriteFingerprint(&buf, fp); err != nil {
				return nil, err
			}
			out[i] = buf.Bytes()
		}
		return out, nil
	}
	var err error
	if c.bodies, err = enc(c.fps); err != nil {
		return err
	}
	c.hbody, err = enc(c.held)
	return err
}

// exactQuery is the exact top-k of q over the packed rows.
func exactQuery(p *core.PackedCorpus, q core.Fingerprint, k int) []knn.Neighbor {
	return knn.TopKRange(p.NumUsers(), k, 1, func(lo, hi int, dst []float64) {
		p.JaccardQueryInto(q, lo, hi, dst)
	})
}

// groundTruth is a sample of users with the exact neighborhoods a graph
// is scored against. Similarities are the exact Jaccard of the users'
// native profiles, computed here rather than taken from the program, so
// quality includes what the fingerprints lose (the paper's Eq. 3).
type groundTruth struct {
	profiles []profile.Profile
	users    []int
	exact    []float64 // Σ native similarity of each user's exact native top-k
	shf      []float64 // Σ native similarity of its exact top-k under the SHFs
}

// sampleTruth computes the exact neighborhoods of up to m evenly spaced
// users: O(m·n) instead of the O(n²) full brute force. group(u) lists the
// users u's neighbors may come from: everyone, or u's shard.
func sampleTruth(c *corpus, k, m int, group func(u int) []int32) groundTruth {
	n := len(c.fps)
	m = min(m, n)
	gt := groundTruth{profiles: c.profiles, users: make([]int, m), exact: make([]float64, m), shf: make([]float64, m)}
	for i := 0; i < m; i++ {
		u := i * n / m
		cands := group(u)
		top := func(sim func(v int) float64) []int32 {
			var out []int32
			for _, nb := range knn.TopK(len(cands), k+1, nproc(), func(j int) float64 { return sim(int(cands[j])) }) {
				if v := cands[nb.ID]; int(v) != u && len(out) < k {
					out = append(out, v)
				}
			}
			return out
		}
		gt.users[i] = u
		gt.exact[i] = gt.score(u, top(func(v int) float64 { return profile.Jaccard(c.profiles[u], c.profiles[v]) }))
		gt.shf[i] = gt.score(u, top(func(v int) float64 { return core.Jaccard(c.fps[u], c.fps[v]) }))
	}
	return gt
}

// everyone is the group of a single-node corpus of n users.
func everyone(n int) func(int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return func(int) []int32 { return all }
}

// score is the native similarity of user u to its neighbors ids, summed.
func (gt groundTruth) score(u int, ids []int32) float64 {
	var s float64
	for _, v := range ids {
		s += profile.Jaccard(gt.profiles[u], gt.profiles[v])
	}
	return s
}

// quality is the paper's sum-of-similarities quality of a graph against
// the sampled exact neighborhoods, Σ sim(found) / Σ sim(exact) averaged
// over the sampled users. found(i, u) returns user u's neighbor ids.
func (gt groundTruth) quality(found func(i, u int) []int32) float64 {
	return gt.mean(func(i, u int) float64 { return gt.score(u, found(i, u)) })
}

// shfQuality is the quality of the exact top-k under the SHFs: the
// fingerprints' own loss, the ceiling of every SHF-built graph.
func (gt groundTruth) shfQuality() float64 {
	return gt.mean(func(i, _ int) float64 { return gt.shf[i] })
}

func (gt groundTruth) mean(got func(i, u int) float64) float64 {
	if len(gt.users) == 0 {
		return 1
	}
	var q float64
	for i, u := range gt.users {
		if gt.exact[i] > 0 {
			q += got(i, u) / gt.exact[i]
		} else {
			q++
		}
	}
	return q / float64(len(gt.users))
}

// checkEdges gates user u's reported neighbors: no self-loop, no
// duplicate, and each similarity the exact SHF Jaccard of the two users.
func (c *corpus) checkEdges(rep *report, what string, u int, nbs []knn.Neighbor) bool {
	seen := map[int32]bool{}
	for _, nb := range nbs {
		if int(nb.ID) == u || seen[nb.ID] || int(nb.ID) >= len(c.fps) {
			rep.gate("%s: user %d has a self-loop, duplicate or unknown neighbor %d", what, u, nb.ID)
			return false
		}
		seen[nb.ID] = true
		if exact := core.Jaccard(c.fps[u], c.fps[nb.ID]); exact != nb.Sim {
			rep.gate("%s: edge %d→%d similarity %v, exact %v", what, u, nb.ID, nb.Sim, exact)
			return false
		}
	}
	return true
}

// recallOf is the share of exact's ids present in got.
func recallOf(got []int32, exact []knn.Neighbor) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int32]bool, len(got))
	for _, id := range got {
		in[id] = true
	}
	hits := 0
	for _, nb := range exact {
		if in[nb.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// pct is the p-th percentile (nearest rank, 0 < p ≤ 100) of xs; 0 for no
// samples. It does not modify xs.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return pct(xs, 50) }

// rounds is how many rounds a run of the given length interleaves its
// timed phases in: builds, latency windows, capacity windows and
// mutation blocks take turns in every round. The machine's slow and fast
// spells then land in every metric alike, and each figure is taken over
// the whole run: p50 latencies over all of its samples, p90 by tailPct,
// capacity as everything answered over all the capacity windows' time,
// build times as the median of all its builds.
func rounds(seconds int) int { return max(5, seconds/3) }

// blockPct is the p-th percentile of each of n consecutive equal blocks
// of xs.
func blockPct(xs []float64, n int, p float64) []float64 {
	per := make([]float64, 0, n)
	for b := 0; b < n && len(xs) >= n; b++ {
		per = append(per, pct(xs[b*len(xs)/n:(b+1)*len(xs)/n], p))
	}
	return per
}

// tailPct is a tail percentile of a series measured in n rounds: the
// mean of the middle half of the n windows' p-th percentiles. A stall of
// the host slows a few windows' tails far more than their medians, and
// the trim drops those windows; the mean over the rest follows the
// machine's speed changes smoothly, where a median would flip between
// its speeds from run to run.
func tailPct(xs []float64, n int, p float64) float64 {
	per := blockPct(xs, n, p)
	if len(per) == 0 {
		return pct(xs, p)
	}
	sort.Float64s(per)
	return mean(per[len(per)/4 : len(per)-len(per)/4])
}

// fmtFloats formats figures for the run's log.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
