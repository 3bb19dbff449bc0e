package scaleout

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/dse"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
)

// The exact-bits oracle pins every float both event engines produce, not
// the rounded figures the text goldens print: %#v renders each float64 in
// its shortest round-trip form, so a 1-ulp drift anywhere in a result
// changes a line. An event-loop change that claims bit-identical results
// must pass this test without -update. Refresh after an intentional model
// change with:
//
//	go test ./internal/scaleout -run TestResultBits -update
var update = flag.Bool("update", false, "rewrite testdata/result_bits.golden")

// offGrid lists design points off the standard grid, as /v1/run spells
// them: every Table III network × dp/mp × precision, four points each, dealt
// over the standard designs with rotating batch, link, memory-node and cDMA
// axes. The last three are host-channel points whose peak bandwidth a
// deferred water-fill moved by an ulp.
func offGrid() []dse.Point {
	designs := []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"}
	var pts []dse.Point
	for _, net := range dnn.BenchmarkNames() {
		for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
			for _, prec := range train.Precisions() {
				for range 4 {
					i := len(pts)
					p := dse.Point{
						Design: designs[i%len(designs)], Workload: net, Strategy: st, Precision: prec,
						Batch: 64 + 32*(i*13%31), LinkGBps: []float64{0, 25, 50, 100}[i/4%4],
					}
					switch p.Design {
					case "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)":
						p.MemNodes = []int{0, 2, 4, 8}[i/2%4]
					default:
						p.Links = []int{0, 4, 8, 12}[i%4]
						p.Compress = p.Design != "DC-DLA(O)" && i%3 == 0
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return append(pts,
		dse.Point{Design: "DC-DLA", Workload: "RNN-GEMV", Strategy: train.ModelParallel, Batch: 768, Precision: train.FP16, Links: 8, LinkGBps: 50, Compress: true},
		dse.Point{Design: "DC-DLA", Workload: "RNN-GEMV", Strategy: train.DataParallel, Batch: 640, Precision: train.FP16, Links: 12, LinkGBps: 50, Compress: true},
		dse.Point{Design: "HC-DLA", Workload: "RNN-GEMV", Strategy: train.DataParallel, Batch: 640, Precision: train.FP32},
	)
}

// resultBits renders one line per point: the core engine on every standard
// design × Table III network × dp/mp × batch 64 and 512 at 8 workers, then
// on the off-grid points, then the plane engine at 1, 2 and 16 system nodes
// × four workloads × DC/MC × data-parallel/hybrid. The single-participant
// rows follow — core at one worker, planes with one device per system node —
// where every collective the schedule asks for has nobody to run with, and
// last the span digests of traced runs.
func resultBits() string {
	var b strings.Builder
	for _, d := range core.StandardDesigns() {
		for _, name := range dnn.BenchmarkNames() {
			for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				for _, batch := range []int{64, 512} {
					fmt.Fprintf(&b, "core %s %s %v %d: ", d.Name, name, st, batch)
					s, err := train.BuildSeq(name, batch, 8, st, 0, train.FP16)
					if err != nil {
						fmt.Fprintf(&b, "build error: %v\n", err)
						continue
					}
					r, err := core.Simulate(d, s)
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n", err)
						continue
					}
					fmt.Fprintf(&b, "%#v\n", r)
				}
			}
		}
	}
	for _, p := range offGrid() {
		fmt.Fprintf(&b, "core %+v: ", p)
		r, err := simulatePoint(p)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "%#v\n", r)
	}
	for _, n := range []int{1, 2, 16} {
		p := Default(n)
		batch := 64 * p.TotalDevices()
		for _, w := range []string{"VGG-E", "BERT-Large", "GPT-2", "RNN-GRU"} {
			for _, mc := range []bool{false, true} {
				for _, st := range []Strategy{DataParallel, Hybrid} {
					fmt.Fprintf(&b, "plane %d %s mc=%v %v %d: ", n, w, mc, st, batch)
					r, err := p.Simulate(w, batch, mc, st)
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n", err)
						continue
					}
					fmt.Fprintf(&b, "%#v\n", r)
				}
			}
		}
	}
	for _, d := range core.StandardDesigns() {
		d.Workers = 1
		for _, name := range dnn.BenchmarkNames() {
			for _, st := range []train.Strategy{train.DataParallel, train.ModelParallel} {
				fmt.Fprintf(&b, "core 1-worker %s %s %v 64: ", d.Name, name, st)
				s, err := train.BuildSeq(name, 64, 1, st, 0, train.FP16)
				if err != nil {
					fmt.Fprintf(&b, "build error: %v\n", err)
					continue
				}
				r, err := core.Simulate(d, s)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				fmt.Fprintf(&b, "%#v\n", r)
			}
		}
	}
	for _, n := range []int{1, 2} {
		p := Default(n)
		p.DevicesPerNode = 1
		batch := 64 * p.TotalDevices()
		for _, w := range []string{"VGG-E", "BERT-Large", "GPT-2", "RNN-GRU"} {
			for _, mc := range []bool{false, true} {
				for _, st := range []Strategy{DataParallel, Hybrid} {
					fmt.Fprintf(&b, "plane %d×1 %s mc=%v %v %d: ", n, w, mc, st, batch)
					r, err := p.Simulate(w, batch, mc, st)
					if err != nil {
						fmt.Fprintf(&b, "error: %v\n", err)
						continue
					}
					fmt.Fprintf(&b, "%#v\n", r)
				}
			}
		}
	}
	for _, c := range tracedCore() {
		fmt.Fprintf(&b, "spans core %s %s %v %d×%d: ", c.design, c.workload, c.strategy, c.batch, c.workers)
		d, err := core.DesignByName(c.design)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		d.Workers = c.workers
		s := train.MustBuild(c.workload, c.batch, c.workers, c.strategy)
		tr := &trace.Log{}
		if _, err := core.SimulateTraced(d, s, tr); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		fmt.Fprintln(&b, spanDigest(tr))
	}
	for _, c := range tracedPlanes() {
		p := Default(c.nodes)
		p.DevicesPerNode = c.devices
		batch := 64 * p.TotalDevices()
		tr := &trace.Log{}
		fmt.Fprintf(&b, "spans plane %d×%d %s mc=%v %v %d: ", c.nodes, c.devices, c.workload, c.mc, c.strategy, batch)
		if _, err := p.SimulateTraced(c.workload, batch, c.mc, c.strategy, tr); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		fmt.Fprintln(&b, spanDigest(tr))
	}
	return b.String()
}

// tracedCore lists the core points whose traces the oracle digests: every
// design, both strategies, recurrent and transformer networks, and a
// single-worker node.
func tracedCore() []struct {
	design, workload string
	strategy         train.Strategy
	batch, workers   int
} {
	return []struct {
		design, workload string
		strategy         train.Strategy
		batch, workers   int
	}{
		{"MC-DLA(B)", "VGG-E", train.DataParallel, 512, 8},
		{"MC-DLA(B)", "RNN-GRU", train.ModelParallel, 512, 8},
		{"DC-DLA", "GoogLeNet", train.DataParallel, 512, 8},
		{"HC-DLA", "ResNet", train.ModelParallel, 256, 8},
		{"DC-DLA(O)", "AlexNet", train.DataParallel, 512, 8},
		{"MC-DLA(S)", "BERT-Large", train.ModelParallel, 64, 8},
		{"MC-DLA(L)", "RNN-LSTM-2", train.DataParallel, 512, 8},
		{"MC-DLA(B)", "RNN-GRU", train.ModelParallel, 64, 1},
		{"DC-DLA", "GPT-2", train.ModelParallel, 64, 1},
	}
}

// tracedPlanes lists the plane points whose traces the oracle digests.
func tracedPlanes() []struct {
	nodes, devices int
	workload       string
	mc             bool
	strategy       Strategy
} {
	return []struct {
		nodes, devices int
		workload       string
		mc             bool
		strategy       Strategy
	}{
		{1, 8, "VGG-E", true, DataParallel},
		{2, 8, "GPT-2", false, Hybrid},
		{16, 8, "BERT-Large", true, DataParallel},
		{16, 8, "RNN-GRU", true, Hybrid},
		{1, 1, "VGG-E", true, DataParallel},
		{2, 1, "RNN-GRU", false, Hybrid},
		{2, 1, "BERT-Large", true, DataParallel},
	}
}

// spanDigest summarizes a trace exactly: the span and fill counts, and an
// FNV-1a hash over every span's name, category and start/end bits in
// emission order.
func spanDigest(tr *trace.Log) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		bits := math.Float64bits(f)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range tr.Spans {
		h.Write([]byte(s.Name))
		h.Write([]byte{0})
		h.Write([]byte(s.Category))
		h.Write([]byte{0})
		put(float64(s.Start))
		put(float64(s.End))
	}
	return fmt.Sprintf("spans=%d fills=%d digest=%016x", len(tr.Spans), tr.Fills, h.Sum64())
}

// simulatePoint builds and simulates p as the runner does for /v1/run.
func simulatePoint(p dse.Point) (core.Result, error) {
	d, err := p.DesignPoint()
	if err != nil {
		return core.Result{}, err
	}
	s, err := train.BuildSeq(p.Workload, p.Batch, 8, p.Strategy, p.SeqLen, p.Precision)
	if err != nil {
		return core.Result{}, err
	}
	return core.Simulate(d, s)
}

func TestResultBits(t *testing.T) {
	path := filepath.Join("testdata", "result_bits.golden")
	got := resultBits()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("result bits: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("result bits drifted at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
