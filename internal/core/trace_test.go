package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/trace"
	"github.com/memcentric/mcdla/internal/train"
)

func TestSimulateTracedConsistency(t *testing.T) {
	s := train.MustBuild("AlexNet", paperBatch, paperWorkers, train.DataParallel)
	for _, d := range StandardDesigns() {
		tr := &trace.Log{}
		r, err := SimulateTraced(d, s, tr)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		sum := tr.Summary()
		// Compute spans must reproduce the breakdown's compute total.
		gotCompute := (sum[trace.Compute] + sum[trace.Recompute]).Seconds()
		if math.Abs(gotCompute-r.Breakdown.Compute.Seconds()) > 1e-9 {
			t.Errorf("%s: trace compute %.6g != breakdown %.6g", d.Name, gotCompute, r.Breakdown.Compute.Seconds())
		}
		// Stall spans must reproduce the prefetch-stall accounting.
		if math.Abs(sum[trace.Stall].Seconds()-r.StallVirt.Seconds()) > 1e-9 {
			t.Errorf("%s: trace stalls %.6g != result %.6g", d.Name, sum[trace.Stall].Seconds(), r.StallVirt.Seconds())
		}
		// No span may end after the iteration.
		for _, sp := range tr.Spans {
			if sp.End > r.IterationTime+1e-12 {
				t.Errorf("%s: span %s ends at %v after iteration end %v", d.Name, sp.Name, sp.End, r.IterationTime)
			}
		}
		if d.Oracle {
			if sum[trace.Offload] != 0 || sum[trace.Prefetch] != 0 {
				t.Errorf("%s: oracle trace shows DMA activity", d.Name)
			}
		} else if sum[trace.Offload] == 0 || sum[trace.Prefetch] == 0 {
			t.Errorf("%s: trace missing DMA activity", d.Name)
		}
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	s := train.MustBuild("GoogLeNet", paperBatch, paperWorkers, train.ModelParallel)
	d := NewMCDLAB(accel.Default(), paperWorkers)
	plain := MustSimulate(d, s)
	tr := &trace.Log{}
	traced, err := SimulateTraced(d, s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.IterationTime != traced.IterationTime {
		t.Fatalf("tracing changed the timeline: %v vs %v", plain.IterationTime, traced.IterationTime)
	}
	tl := &trace.Timeline{Label: tr.Label}
	tl.AddProcess(tr.Label, tr)
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph":"X"`)) {
		t.Fatal("chrome trace has no span events")
	}
}

func TestMCDLAOverlapQuality(t *testing.T) {
	// The Figure 11 story in trace form: MC-DLA(B)'s compute track covers
	// most of the iteration (DMAs hidden), DC-DLA's does not.
	s := train.MustBuild("VGG-E", paperBatch, paperWorkers, train.DataParallel)
	shares := map[string]float64{}
	for _, name := range []string{"DC-DLA", "MC-DLA(B)"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Log{}
		if _, err := SimulateTraced(d, s, tr); err != nil {
			t.Fatal(err)
		}
		shares[name] = tr.CriticalPathShare()
	}
	if shares["MC-DLA(B)"] < 2*shares["DC-DLA"] {
		t.Fatalf("overlap shares: MC-DLA(B) %.2f vs DC-DLA %.2f — expected MC to keep compute busy",
			shares["MC-DLA(B)"], shares["DC-DLA"])
	}
}
