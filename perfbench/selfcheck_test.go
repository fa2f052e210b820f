package main

// The benchmark's self-check: every workload at a few hundred users,
// untraced and traced, through the same entry point the command uses, so
// the benchmark cannot rot unnoticed. Run it from this directory with
//
//	go test ./...

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"goldfinger/internal/knn"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at self-check scale and decodes its last
// output line, failing the test unless the run passed every gate.
func runTiny(t *testing.T, workload string, seed int, trace bool) result {
	t.Helper()
	tr := "0"
	if trace {
		tr = "1"
	}
	var out, errb bytes.Buffer
	code, err := run([]string{"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", "1",
		"--trace", tr, "--tiny", "--workdir", t.TempDir()}, &out, &errb)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, err %v\nstderr:\n%s", code, err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\nstderr:\n%s", res.Correct, res.Attempted, res.Failed, errb.String())
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func TestTinyWorkloads(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			res := runTiny(t, wl, 7, false)
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, names(endToEnd)) {
				t.Fatalf("end-to-end metrics %v, want %v", got, names(endToEnd))
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			// A second seed gives metrics of the same shape, with every
			// gate passing.
			res2 := runTiny(t, wl, 8, false)
			if !reflect.DeepEqual(sortedKeys(res2.Metrics), sortedKeys(res.Metrics)) {
				t.Fatalf("seed 8 reported %v, seed 7 %v", sortedKeys(res2.Metrics), sortedKeys(res.Metrics))
			}

			traced := runTiny(t, wl, 7, true)
			if got := sortedKeys(traced.Metrics); !reflect.DeepEqual(got, names(perLayer)) {
				t.Fatalf("per-layer metrics %v, want %v", got, names(perLayer))
			}
			if traced.Metrics["trace.spans"].Value <= 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}
	check := func(what string, listed []struct{ Name, Unit string }, defs []metricDef) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s %v, program %v", what, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestGates feeds the serving checks answers that break each gate.
func TestGates(t *testing.T) {
	c, err := makeCorpus(200, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := c.held[0]
	good := func() *op {
		var hits []hit
		for _, nb := range exactQuery(c.packed, q, graphK) {
			hits = append(hits, hit{slot: int(nb.ID), sim: nb.Sim})
		}
		return &op{kind: opQuery, fp: 0, req: 1, sent: 100, done: 200, status: http.StatusOK, partial: "3/3", hits: hits}
	}
	cases := map[string]func(o *op) []*op{
		"ok": func(o *op) []*op { return []*op{o} },
		"short": func(o *op) []*op {
			o.hits = o.hits[:graphK-1]
			return []*op{o}
		},
		"unordered": func(o *op) []*op {
			o.hits[0], o.hits[graphK-1] = o.hits[graphK-1], o.hits[0]
			return []*op{o}
		},
		"wrong similarity": func(o *op) []*op {
			o.hits[graphK-1].sim /= 2
			return []*op{o}
		},
		"deleted before sent": func(o *op) []*op {
			del := &op{kind: opDelete, slot: o.hits[0].slot, status: http.StatusNoContent, sent: 10, done: 50}
			return []*op{del, o}
		},
		"partial coverage": func(o *op) []*op {
			o.partial = "2/3"
			return []*op{o}
		},
		"refused": func(o *op) []*op {
			o.status = http.StatusServiceUnavailable
			return []*op{o}
		},
	}
	for name, mk := range cases {
		rep := newReport(config{workload: "routed-read"})
		checkOps(serveRouted, c, mk(good()), rep)
		if ok := rep.correct(); ok != (name == "ok") {
			t.Errorf("%s: correct=%v, gates %v", name, ok, rep.gateFailures())
		}
	}
	// A DELETE acked after the query was sent may or may not be visible.
	rep := newReport(config{workload: "churn"})
	o := good()
	del := &op{kind: opDelete, slot: o.hits[0].slot, status: http.StatusNoContent, sent: 90, done: 150}
	checkOps(serveChurn, c, []*op{del, o}, rep)
	if !rep.correct() {
		t.Errorf("in-flight delete failed the run: %v", rep.gateFailures())
	}
}

// TestGraphGates checks that a graph with an inflated similarity fails
// the edge gate, and that quality scores neighbor ids with the native
// profiles, not the similarities the program reports.
func TestGraphGates(t *testing.T) {
	c, err := makeCorpus(200, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := knn.BruteForce(knn.NewPackedSHFProvider(c.packed), graphK, knn.Options{Seed: 3})
	truth := sampleTruth(c, graphK, 50, everyone(200))
	rep := newReport(config{workload: "build"})
	for u, nbs := range g.Neighbors {
		c.checkEdges(rep, "exact", u, nbs)
	}
	if !rep.correct() {
		t.Fatalf("exact SHF graph failed the edge gate: %v", rep.gateFailures())
	}
	q := truth.quality(func(_, u int) []int32 { return ids(g.Neighbors[u]) })
	// Ties in the SHF estimate may pick other ids than the ceiling's.
	if shf := truth.shfQuality(); math.Abs(q-shf) > 0.02 || q <= 0.5 || q > 1 {
		t.Errorf("exact SHF graph quality %v, want about its SHF ceiling %v, in (0.5, 1]", q, shf)
	}

	g.Neighbors[7][0].Sim += 0.25
	c.checkEdges(rep, "inflated", 7, g.Neighbors[7])
	if rep.correct() {
		t.Error("an inflated similarity passed the edge gate")
	}
	if q2 := truth.quality(func(_, u int) []int32 { return ids(g.Neighbors[u]) }); q2 != q {
		t.Errorf("quality moved from %v to %v with a reported similarity", q, q2)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.add(span{Name: "parent", ID: 1, Start: 0, End: 100})
	tr.add(span{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40})
	tr.add(span{Name: "child", ID: 3, Parent: 1, Start: 30, End: 60})
	tr.add(span{Name: "child", ID: 4, Parent: 1, Start: 90, End: 120})
	a := tr.analyze()
	if got := a.self(a.byName["parent"][0]); got != 40 {
		t.Fatalf("self time %d, want 40 (100 minus the covered 10-60 and 90-100)", got)
	}
}

// TestTailPct checks that a window stalled by the host does not move the
// tail figure.
func TestTailPct(t *testing.T) {
	var xs []float64
	for w := 0; w < 10; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 3 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	if got := tailPct(xs, 10, 90); got != 90 {
		t.Fatalf("tailPct with one stalled window = %v, want 90", got)
	}
}

// TestAtReferenceSpeed checks that only timings and rates are rescaled,
// and that the measured figures stay in the provenance.
func TestAtReferenceSpeed(t *testing.T) {
	rep := newReport(config{workload: "build"})
	rep.cal.points = []float64{calibRefMS * 2, calibRefMS * 2} // a host at half speed
	rep.e2e("setup_s", 4, "s")
	rep.e2e("query_p50_ms", 2, "ms")
	rep.e2e("saturated_qps", 500, "1/s")
	rep.e2e("quality_cluster", 0.9, "ratio")
	rep.e2e("peak_rss_mb", 80, "MB")
	rep.atReferenceSpeed()
	want := map[string]float64{"setup_s": 2, "query_p50_ms": 1, "saturated_qps": 1000, "quality_cluster": 0.9, "peak_rss_mb": 80}
	for name, v := range want {
		if got := rep.metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if rep.prov.Measured["setup_s"] != 4 || rep.prov.Measured["saturated_qps"] != 500 || len(rep.prov.Measured) != 3 {
		t.Errorf("measured figures %v", rep.prov.Measured)
	}
	if rep.prov.SpeedFactor != 0.5 {
		t.Errorf("speed factor %v, want 0.5", rep.prov.SpeedFactor)
	}
}
