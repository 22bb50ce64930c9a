package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"selectivemt"
	"selectivemt/internal/gen"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

func mappedSmall(t *testing.T) (*gen.Module, *netlist.Design) {
	t.Helper()
	env, err := selectivemt.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.SmallTest()
	d, err := synth.Map(spec.Module, env.Lib, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return spec.Module, d
}

// sourceOf returns the instance whose output drives net n.
func sourceOf(t *testing.T, d *netlist.Design, n *netlist.Net) *netlist.Instance {
	t.Helper()
	for _, inst := range d.Instances() {
		if inst.OutputNet() == n {
			return inst
		}
	}
	t.Fatalf("nothing drives %s", n.Name)
	return nil
}

func TestEquivalenceAcceptsMappedModule(t *testing.T) {
	m, d := mappedSmall(t)
	if err := checkEquivalent(m, d, equivalenceCycles(m), 1); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalenceRejectsSwappedOutputBits(t *testing.T) {
	m, d := mappedSmall(t)
	a := sourceOf(t, d, d.PortByName("p[0]").Net)
	b := sourceOf(t, d, d.PortByName("p[1]").Net)
	na, nb := a.Conns["A"], b.Conns["A"]
	for _, step := range []func() error{
		func() error { return d.Disconnect(a, "A") },
		func() error { return d.Disconnect(b, "A") },
		func() error { return d.Connect(a, "A", nb) },
		func() error { return d.Connect(b, "A", na) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	err := checkEquivalent(m, d, equivalenceCycles(m), 1)
	if err == nil || !strings.Contains(err.Error(), "output p[") {
		t.Fatalf("swapped output bits not caught: %v", err)
	}
}

func TestRegisterDepth(t *testing.T) {
	// SmallTest registers its inputs and its product: two flops deep.
	if got := registerDepth(gen.SmallTest().Module); got != 2 {
		t.Fatalf("register depth %d, want 2", got)
	}
}

func table1Result(area, leak float64) *selectivemt.TechniqueResult {
	return &selectivemt.TechniqueResult{AreaUm2: area, StandbyLeakMW: leak}
}

func TestTable1OrderRejectsBrokenOrderings(t *testing.T) {
	good := &selectivemt.Comparison{
		Circuit:  "c",
		Dual:     table1Result(100, 1.0),
		Conv:     table1Result(160, 0.15),
		Improved: table1Result(130, 0.10),
	}
	if err := checkTable1Order(good); err != nil {
		t.Fatal(err)
	}
	area := *good
	area.Improved = table1Result(170, 0.10) // Imp above Conv in area
	if err := checkTable1Order(&area); err == nil || !strings.Contains(err.Error(), "area") {
		t.Fatalf("broken area order not caught: %v", err)
	}
	leak := *good
	leak.Conv = table1Result(160, 1.5) // Conv above Dual in leakage
	if err := checkTable1Order(&leak); err == nil || !strings.Contains(err.Error(), "leakage") {
		t.Fatalf("broken leakage order not caught: %v", err)
	}
}

func TestTimingFailureClassification(t *testing.T) {
	if msg := timingFailure(0.2, 0.01); msg != "" {
		t.Fatalf("clean timing reported as %q", msg)
	}
	if msg := timingFailure(-0.031, 0.01); classifyFault(msg) != faultSetupSlack {
		t.Fatalf("negative setup slack %q not the known fault", msg)
	}
	if msg := timingFailure(0.2, -0.01); msg == "" || classifyFault(msg) != "" {
		t.Fatalf("negative hold slack %q must be an unknown failure", msg)
	}
}

func TestClassifyFault(t *testing.T) {
	crosstalk := "flow: Improved-SMT stage post-route switch re-optimization: core: cluster 1 fails " +
		"post-route check: vgnd: wirelength 220.2µm exceeds limit 220.0µm (crosstalk rule)"
	if got := classifyFault(crosstalk); got != faultCrosstalk {
		t.Fatalf("crosstalk abort classified %q", got)
	}
	for _, msg := range []string{
		"flow: Improved-SMT stage post-route switch re-optimization: core: cluster 1 fails post-route check: vgnd: bounce 0.31V exceeds limit",
		"job panicked: nil map",
		"",
	} {
		if got := classifyFault(msg); got != "" {
			t.Fatalf("%q classified as known fault %q", msg, got)
		}
	}
	b := &bench{}
	b.fail("op", "job panicked: nil map")
	if len(b.Problems) != 1 {
		t.Fatal("an unknown failure must make the run incorrect")
	}
}

func goodCorners() *mcmm.Report {
	return &mcmm.Report{
		Corners: []mcmm.Metrics{
			{Corner: tech.CornerTyp, SetupWNSNs: 0.8, HoldWNSNs: 0.02, StandbyLeakMW: 0.016},
			{Corner: tech.CornerSlow, SetupWNSNs: -5.6, HoldWNSNs: 0.03, StandbyLeakMW: 0.018},
			{Corner: tech.CornerFastHot, SetupWNSNs: 4.6, HoldWNSNs: 0.01, StandbyLeakMW: 0.064},
			{Corner: tech.CornerFastCold, SetupWNSNs: 4.8, HoldWNSNs: 0.02, StandbyLeakMW: 0.0016},
		},
		BindingSetup:   tech.CornerSlow,
		BindingHold:    tech.CornerFastHot,
		BindingLeakage: tech.CornerFastHot,
	}
}

func TestCheckCornersRejectsBrokenReports(t *testing.T) {
	if err := checkCorners(goodCorners()); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*mcmm.Report){
		"hold":          func(r *mcmm.Report) { r.Corners[3].HoldWNSNs = -0.004 },
		"setup binds":   func(r *mcmm.Report) { r.BindingSetup = tech.CornerTyp },
		"leakage binds": func(r *mcmm.Report) { r.BindingLeakage = tech.CornerSlow },
		"leakage order": func(r *mcmm.Report) { r.Corners[0].StandbyLeakMW = 0.02 },
		"corner count":  func(r *mcmm.Report) { r.Corners = r.Corners[:3] },
	} {
		r := goodCorners()
		corrupt(r)
		if err := checkCorners(r); err == nil {
			t.Errorf("%s: corrupted report accepted", name)
		}
	}
	if err := checkCorners(nil); err == nil {
		t.Error("missing report accepted")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := median(xs); got != 5.5 {
		t.Fatalf("median %v", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Fatalf("p90 %v", got)
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Fatalf("empty p90 %v", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
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
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(want) != len(got) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], printed %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", endToEndMetrics, def.EndToEnd)
	same("per_layer", perLayerMetrics, def.PerLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	layers := map[string]bool{}
	for _, d := range perLayerMetrics {
		layers[d.name] = true
	}
	for _, technique := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		stages, ok := selectivemt.PipelineStages(technique)
		if !ok {
			t.Fatalf("no pipeline %s", technique)
		}
		for _, st := range stages {
			if !layers[stageLayer[st]] {
				t.Errorf("%s stage %q feeds no per-layer metric", technique, st)
			}
		}
	}
}

func TestMergeTakesMediansAndChecksParts(t *testing.T) {
	part := func(wall, rss float64, leak float64, digest string) *partResult {
		return &partResult{
			Rounds: 1, Attempted: 6, Completed: 5, Busy: wall,
			Failures: []failure{{Op: "large_10000/Improved-SMT", Fault: faultCrosstalk}},
			Setups:   []float64{0.01, 0.02, 0.03}, Walls: []float64{wall}, JobLat: []float64{wall / 2},
			Leak: leak, Area: 100, PeakRSSMB: rss, Reports: map[string]string{"spec00": digest},
		}
	}
	m := merge([]*partResult{part(8, 300, 1, "x"), part(10, 320, 1, "x"), part(30, 900, 1, "x")}, false)
	if len(m.Problems) != 0 {
		t.Fatalf("consistent parts flagged: %v", m.Problems)
	}
	if m.e2e["wall_s"] != 10 || m.e2e["peak_rss_mb"] != 320 || m.e2e["setup_s"] != 0.02 {
		t.Fatalf("medians wrong: %v", m.e2e)
	}
	if m.Attempted != 18 || len(m.Failures) != 3 || m.e2e["jobs_per_s"] != 15.0/48 {
		t.Fatalf("tallies wrong: attempted %d failed %d jobs/s %v", m.Attempted, len(m.Failures), m.e2e["jobs_per_s"])
	}
	m = merge([]*partResult{part(8, 300, 1, "x"), part(9, 300, 1.5, "y")}, false)
	if len(m.Problems) != 2 {
		t.Fatalf("a part with other design figures and another report must be flagged twice: %v", m.Problems)
	}
}
