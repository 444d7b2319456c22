package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hdsampler/internal/datagen"
	"hdsampler/internal/hiddendb"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that the run passes its output checks and prints exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload over loopback TCP")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, err := run(options{
				workload: wl.Name, seed: 3, seconds: 1, trace: trace,
				workDir: t.TempDir(), smoke: true,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}

// TestCheckerRejectsForgedSamples feeds the output checker samples that
// are not rows of the database.
func TestCheckerRejectsForgedSamples(t *testing.T) {
	ds := datagen.Vehicles(500, 1)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, ds.Ranker, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	genuine := func(id int) wireSample {
		tu := db.Tuple(id)
		s := wireSample{ID: id, Vals: tu.Vals, Nums: map[string]float64{}}
		for a, attr := range db.Schema().Attrs {
			if v, ok := tu.Num(a); ok {
				s.Nums[attr.Name] = v
			}
		}
		return s
	}
	ck := newChecker(db, 0)
	if err := ck.sample(genuine(7)); err != nil {
		t.Fatalf("genuine sample rejected: %v", err)
	}

	forged := map[string]wireSample{}
	s := genuine(7)
	s.ID = db.Size()
	forged["id past the end"] = s
	s = genuine(7)
	s.ID = -1
	forged["negative id"] = s
	s = genuine(7)
	s.Vals = append([]int(nil), s.Vals...)
	s.Vals[0] = (s.Vals[0] + 1) % db.Schema().DomainSize(0)
	forged["value differs from the row"] = s
	s = genuine(7)
	s.Vals = s.Vals[1:]
	forged["missing value"] = s
	s = genuine(7)
	s.Nums = map[string]float64{"price": s.Nums["price"] + 1, "mileage": s.Nums["mileage"]}
	forged["numeric value differs"] = s
	s = genuine(7)
	s.Nums = map[string]float64{"price": s.Nums["price"]}
	forged["numeric value missing"] = s
	s = genuine(7)
	s.Vals = genuine(8).Vals
	forged["another row's values"] = s
	for name, s := range forged {
		if err := ck.sample(s); err == nil {
			t.Errorf("%s: forged sample %+v accepted", name, s)
		}
	}

	// A job whose set holds fewer samples than it asked for fails too.
	set := map[string]any{
		"schema":  map[string]any{"attrs": schemaAttrs(db)},
		"samples": []wireSample{genuine(1), genuine(2)},
	}
	body, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.job(&jobRecord{n: 2, body: body}); err != nil {
		t.Fatalf("genuine job rejected: %v", err)
	}
	if err := ck.job(&jobRecord{n: 3, body: body}); err == nil || !strings.Contains(err.Error(), "want 3") {
		t.Errorf("short job accepted or wrong error: %v", err)
	}
}

func schemaAttrs(db *hiddendb.DB) []map[string]string {
	var out []map[string]string
	for _, a := range db.Schema().Attrs {
		out = append(out, map[string]string{"name": a.Name})
	}
	return out
}

// TestMarginalsRejectSkewedPool feeds the marginal check a pool drawn
// from a single make.
func TestMarginalsRejectSkewedPool(t *testing.T) {
	ds := datagen.Vehicles(2000, 2)
	db, err := hiddendb.New(ds.Schema, ds.Tuples, ds.Ranker, hiddendb.Config{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	uniform, skewed := newChecker(db, 0), newChecker(db, 0)
	for id := 0; id < db.Size(); id++ {
		tu := db.Tuple(id)
		uniform.pool(tu.Vals)
		if tu.Vals[0] == 0 {
			skewed.pool(tu.Vals)
		}
	}
	if err := uniform.marginals(); err != nil {
		t.Errorf("the whole table rejected: %v", err)
	}
	if err := skewed.marginals(); err == nil {
		t.Error("a pool of one make accepted")
	}
}
