package core

import (
	"testing"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/train"
)

const (
	paperBatch   = 512
	paperWorkers = 8
)

// simulateAll runs every workload on every standard design for a strategy.
func simulateAll(t *testing.T, strategy train.Strategy) map[string]map[string]Result {
	t.Helper()
	out := make(map[string]map[string]Result)
	for _, name := range dnn.BenchmarkNames() {
		s := train.MustBuild(name, paperBatch, paperWorkers, strategy)
		out[name] = make(map[string]Result)
		for _, d := range StandardDesigns() {
			r, err := Simulate(d, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, d.Name, err)
			}
			out[name][d.Name] = r
		}
	}
	return out
}

func speedups(rs map[string]map[string]Result, over, base string) []float64 {
	var out []float64
	for _, name := range dnn.BenchmarkNames() {
		out = append(out, rs[name][base].IterationTime.Seconds()/rs[name][over].IterationTime.Seconds())
	}
	return out
}

func TestStandardDesignsValid(t *testing.T) {
	ds := StandardDesigns()
	if len(ds) != 6 {
		t.Fatalf("design count = %d, want 6", len(ds))
	}
	wantNames := []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)"}
	for i, d := range ds {
		if d.Name != wantNames[i] {
			t.Errorf("design %d = %s, want %s", i, d.Name, wantNames[i])
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestDesignBandwidths(t *testing.T) {
	byName := map[string]Design{}
	for _, d := range StandardDesigns() {
		byName[d.Name] = d
	}
	if got := byName["DC-DLA"].VirtBW.GBps(); got != 12 {
		t.Errorf("DC-DLA virt = %g, want sustained PCIe gen3 12 GB/s", got)
	}
	if got := byName["HC-DLA"].VirtBW.GBps(); got != 75 {
		t.Errorf("HC-DLA virt = %g, want 3 links = 75 GB/s", got)
	}
	if got := byName["MC-DLA(S)"].VirtBW.GBps(); got != 50 {
		t.Errorf("MC-DLA(S) virt = %g, want 2 links = 50 GB/s", got)
	}
	if got := byName["MC-DLA(L)"].VirtBW.GBps(); got != 75 {
		t.Errorf("MC-DLA(L) virt = %g, want N·B/2 = 75 GB/s", got)
	}
	if got := byName["MC-DLA(B)"].VirtBW.GBps(); got != 150 {
		t.Errorf("MC-DLA(B) virt = %g, want N·B = 150 GB/s", got)
	}
	// Ring aggregates: 3×25 for DC and MC; 1.5×25 for HC.
	if got := byName["DC-DLA"].Sync.AggregateBW().GBps(); got != 75 {
		t.Errorf("DC-DLA ring bw = %g, want 75", got)
	}
	if got := byName["HC-DLA"].Sync.AggregateBW().GBps(); got != 37.5 {
		t.Errorf("HC-DLA ring bw = %g, want 37.5", got)
	}
	// MC-DLA rings thread 16 nodes; the star/folded design is bottlenecked
	// by its 20-hop ring.
	if got := byName["MC-DLA(B)"].Sync.Nodes; got != 16 {
		t.Errorf("MC-DLA(B) ring nodes = %d, want 16", got)
	}
	if got := byName["MC-DLA(S)"].Sync.Nodes; got != 20 {
		t.Errorf("MC-DLA(S) ring nodes = %d, want 20 (Figure 7(b) longest ring)", got)
	}
	if got := byName["MC-DLA(S)"].Sync.Rings; got != 3 {
		t.Errorf("MC-DLA(S) rings = %g, want N/2 = 3", got)
	}
	if gen4, err := DesignByName("DC-DLA(gen4)"); err != nil || gen4.VirtBW.GBps() != 24 {
		t.Errorf("gen4 design: %v %v", gen4.VirtBW, err)
	}
}

func TestOracleFastestAndZeroVirt(t *testing.T) {
	rs := simulateAll(t, train.DataParallel)
	for name, designs := range rs {
		o := designs["DC-DLA(O)"]
		if o.VirtTraffic != 0 || o.HostBytes != 0 {
			t.Errorf("%s: oracle has virtualization traffic", name)
		}
		if o.Breakdown.Virt != 0 {
			t.Errorf("%s: oracle has virt latency", name)
		}
	}
}

// The paper's headline (§V-B): MC-DLA(B) achieves an average 3.5× speedup
// over DC-DLA for data-parallel training. Our simulator must land in the
// same band (we accept 2.8–4.2).
func TestHeadlineDataParallelSpeedup(t *testing.T) {
	rs := simulateAll(t, train.DataParallel)
	sp := speedups(rs, "MC-DLA(B)", "DC-DLA")
	hm := metrics.HarmonicMean(sp)
	if hm < 2.8 || hm > 4.2 {
		t.Fatalf("DP harmonic-mean speedup = %.2f, want ≈3.5 (band 2.8-4.2); per-workload %v", hm, sp)
	}
}

// §V-B: 2.1× for model-parallel training (band 1.6-2.6).
func TestHeadlineModelParallelSpeedup(t *testing.T) {
	rs := simulateAll(t, train.ModelParallel)
	sp := speedups(rs, "MC-DLA(B)", "DC-DLA")
	hm := metrics.HarmonicMean(sp)
	if hm < 1.6 || hm > 2.6 {
		t.Fatalf("MP harmonic-mean speedup = %.2f, want ≈2.1 (band 1.6-2.6); per-workload %v", hm, sp)
	}
}

// §V-B: MC-DLA(B) reaches 84%–99% of the unbuildable oracle (average 95%).
func TestOracleFraction(t *testing.T) {
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		rs := simulateAll(t, strategy)
		var fracs []float64
		for _, name := range dnn.BenchmarkNames() {
			f := rs[name]["MC-DLA(B)"].Performance(rs[name]["DC-DLA(O)"])
			if f > 1.15 {
				t.Errorf("%s/%v: MC-DLA(B) impossibly beats oracle by %.2f", name, strategy, f)
			}
			fracs = append(fracs, f)
		}
		hm := metrics.HarmonicMean(fracs)
		if hm < 0.80 || hm > 1.0 {
			t.Errorf("%v: oracle fraction = %.2f, want ≈0.95 (band 0.80-1.00)", strategy, hm)
		}
	}
}

// §V-B: the simpler MC-DLA(L) achieves ≈96% of MC-DLA(B)'s performance.
func TestLocalPlacementNearBWAware(t *testing.T) {
	rs := simulateAll(t, train.DataParallel)
	var fracs []float64
	for _, name := range dnn.BenchmarkNames() {
		fracs = append(fracs, rs[name]["MC-DLA(B)"].IterationTime.Seconds()/rs[name]["MC-DLA(L)"].IterationTime.Seconds())
	}
	hm := metrics.HarmonicMean(fracs)
	if hm < 0.88 || hm > 1.0 {
		t.Fatalf("MC-DLA(L)/MC-DLA(B) performance ratio = %.2f, want ≈0.96", hm)
	}
}

// §V-B: MC-DLA(S) loses on average ≈14% (max 24%) against MC-DLA(B).
func TestStarDesignLoss(t *testing.T) {
	var losses []float64
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		rs := simulateAll(t, strategy)
		for _, name := range dnn.BenchmarkNames() {
			loss := 1 - rs[name]["MC-DLA(B)"].IterationTime.Seconds()/rs[name]["MC-DLA(S)"].IterationTime.Seconds()
			if loss < -0.02 {
				t.Errorf("%s/%v: MC-DLA(S) beats MC-DLA(B) by %.1f%%", name, strategy, -loss*100)
			}
			// The paper reports a 24% worst case; our DP RNNs are slightly
			// more virtualization-pressured, so allow up to 50% on
			// individual workloads while holding the average.
			if loss > 0.50 {
				t.Errorf("%s/%v: MC-DLA(S) loss %.1f%% far exceeds the paper's 24%% max", name, strategy, loss*100)
			}
			losses = append(losses, loss)
		}
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	avg := sum / float64(len(losses))
	if avg < 0.05 || avg > 0.22 {
		t.Fatalf("MC-DLA(S) average loss = %.1f%%, want ≈14%%", avg*100)
	}
}

// HC-DLA beats DC-DLA but stays well below MC-DLA(B) (§V-B).
func TestHCDLAOrdering(t *testing.T) {
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		rs := simulateAll(t, strategy)
		sp := metrics.HarmonicMean(speedups(rs, "HC-DLA", "DC-DLA"))
		if sp < 1.05 {
			t.Errorf("%v: HC-DLA speedup over DC-DLA = %.2f, want > 1", strategy, sp)
		}
		spB := metrics.HarmonicMean(speedups(rs, "MC-DLA(B)", "DC-DLA"))
		if sp >= spB {
			t.Errorf("%v: HC-DLA (%.2f) should not beat MC-DLA(B) (%.2f)", strategy, sp, spB)
		}
	}
}

// Figure 12: MC-DLA consumes no CPU memory bandwidth whatsoever; HC-DLA
// saturates its hypothetical socket on virtualization-heavy workloads.
func TestCPUMemoryBandwidthUsage(t *testing.T) {
	maxHC := 0.0
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		rs := simulateAll(t, strategy)
		for name, designs := range rs {
			for _, mc := range []string{"MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)"} {
				if r := designs[mc]; r.HostBytes != 0 || r.AvgHostSocketBW != 0 || r.MaxHostSocketBW != 0 {
					t.Errorf("%s/%s: memory-centric design touches CPU memory", name, mc)
				}
			}
			if got := designs["HC-DLA"].MaxHostSocketBW.GBps(); got > 300.001 {
				t.Errorf("%s: HC-DLA max socket bandwidth %.1f exceeds the 4×75 provisioning", name, got)
			}
			if avg := designs["HC-DLA"].AvgHostSocketBW.GBps(); avg > maxHC {
				maxHC = avg
			}
			if got := designs["DC-DLA"].MaxHostSocketBW.GBps(); got > 64.001 {
				t.Errorf("%s: DC-DLA max socket bandwidth %.1f exceeds 4×16 PCIe", name, got)
			}
		}
	}
	// §II-C/§V-A: HC-DLA can consume ≈92% of host memory bandwidth for
	// certain workloads (we observe ≈82% with half-precision tensors).
	if maxHC < 0.75*300 {
		t.Fatalf("worst-case HC-DLA socket usage = %.1f GB/s, want ≥ 75%% of 300", maxHC)
	}
}

// Figure 11's framing: memory virtualization is a significant bottleneck for
// DC-DLA on most of the 16 workload×strategy combinations.
func TestVirtDominatesDCDLA(t *testing.T) {
	bottlenecked := 0
	for _, strategy := range []train.Strategy{train.DataParallel, train.ModelParallel} {
		rs := simulateAll(t, strategy)
		for _, name := range dnn.BenchmarkNames() {
			b := rs[name]["DC-DLA"].Breakdown
			if b.Virt > b.Compute {
				bottlenecked++
			}
		}
	}
	// The paper reports 14 of 16; accept ≥ 12.
	if bottlenecked < 12 {
		t.Fatalf("virtualization dominates compute on only %d/16 DC-DLA runs, want ≥ 12", bottlenecked)
	}
}

// HC-DLA's trade-off (§V-A): large reduction in virtualization latency, paid
// for with roughly doubled synchronization time.
func TestHCDLATradeoff(t *testing.T) {
	rs := simulateAll(t, train.ModelParallel)
	var virtRed, syncInc []float64
	for _, name := range dnn.BenchmarkNames() {
		dc := rs[name]["DC-DLA"].Breakdown
		hc := rs[name]["HC-DLA"].Breakdown
		virtRed = append(virtRed, 1-hc.Virt.Seconds()/dc.Virt.Seconds())
		syncInc = append(syncInc, hc.Sync.Seconds()/dc.Sync.Seconds()-1)
	}
	avgVirt := 0.0
	for _, v := range virtRed {
		avgVirt += v
	}
	avgVirt /= float64(len(virtRed))
	if avgVirt < 0.75 || avgVirt > 0.95 {
		t.Errorf("HC-DLA virt latency reduction = %.0f%%, want ≈88%%", avgVirt*100)
	}
	avgSync := 0.0
	for _, s := range syncInc {
		avgSync += s
	}
	avgSync /= float64(len(syncInc))
	if avgSync < 0.6 || avgSync > 1.3 {
		t.Errorf("HC-DLA sync increase = %.0f%%, want ≈90%%", avgSync*100)
	}
}

func TestSimulateErrors(t *testing.T) {
	s := train.MustBuild("AlexNet", paperBatch, paperWorkers, train.DataParallel)
	bad := NewDCDLA(accel.Default(), 4) // worker mismatch
	if _, err := Simulate(bad, s); err == nil {
		t.Error("expected worker-mismatch error")
	}
	invalid := NewDCDLA(accel.Default(), 8)
	invalid.VirtBW = 0
	if _, err := Simulate(invalid, s); err == nil {
		t.Error("expected invalid-design error")
	}
}

func TestDesignByName(t *testing.T) {
	for _, name := range []string{"DC-DLA", "HC-DLA", "MC-DLA(S)", "MC-DLA(L)", "MC-DLA(B)", "DC-DLA(O)", "DC-DLA(gen4)"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d.Name != name {
			t.Errorf("DesignByName(%s).Name = %s", name, d.Name)
		}
	}
	if _, err := DesignByName("XC-DLA"); err == nil {
		t.Error("expected error for unknown design")
	}
}

func TestKindStrings(t *testing.T) {
	names := map[DesignKind]string{
		DCDLA: "DC-DLA", HCDLA: "HC-DLA", MCDLAS: "MC-DLA(S)",
		MCDLAL: "MC-DLA(L)", MCDLAB: "MC-DLA(B)", DCDLAO: "DC-DLA(O)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("kind %d = %q, want %q", int(k), got, want)
		}
	}
	if DesignKind(42).String() != "DesignKind(42)" {
		t.Error("unknown kind string wrong")
	}
}

func TestSingleDeviceSimulation(t *testing.T) {
	// Figure 2 mode: one device, no collectives.
	s := train.MustBuild("AlexNet", 256, 1, train.DataParallel)
	d := NewDCDLA(accel.Default(), 1)
	r := MustSimulate(d, s)
	if r.SyncTraffic != 0 || r.Breakdown.Sync != 0 {
		t.Fatal("single-device run must have no synchronization")
	}
	if r.IterationTime <= 0 || r.VirtTraffic <= 0 {
		t.Fatal("single-device run must still virtualize memory")
	}
	o := NewDCDLAO(accel.Default(), 1)
	ro := MustSimulate(o, s)
	if ro.IterationTime >= r.IterationTime {
		t.Fatal("oracle must beat PCIe virtualization on a single device")
	}
}

func TestEffectiveVirtBWSocketSharing(t *testing.T) {
	d := NewDCDLA(accel.Default(), 8)
	if d.EffectiveVirtBW() != d.VirtBW {
		t.Fatal("no cap: effective must equal nominal")
	}
	d.HostSocketShared = d.VirtBW // 12 GB/s socket shared by 4 devices
	if got := d.EffectiveVirtBW().GBps(); got != 3 {
		t.Fatalf("shared effective bw = %g, want 12/4", got)
	}
	d.Workers = 2 // fewer devices than the socket fan-in
	if got := d.EffectiveVirtBW().GBps(); got != 6 {
		t.Fatalf("shared effective bw = %g, want 12/2", got)
	}
}

func TestDeterminism(t *testing.T) {
	s := train.MustBuild("GoogLeNet", paperBatch, paperWorkers, train.ModelParallel)
	d := NewMCDLAB(accel.Default(), paperWorkers)
	a := MustSimulate(d, s)
	b := MustSimulate(d, s)
	if a.IterationTime != b.IterationTime || a.VirtTraffic != b.VirtTraffic {
		t.Fatal("simulation is not deterministic")
	}
}

func TestBreakdownTotalsExceedIteration(t *testing.T) {
	// The paper's Figure 11 caption: the stacked categories overlap, so a
	// well-overlapped design's iteration time is below the stack total but
	// at least the largest single category.
	rs := simulateAll(t, train.DataParallel)
	for name, designs := range rs {
		for dn, r := range designs {
			largest := r.Breakdown.Compute
			if r.Breakdown.Sync > largest {
				largest = r.Breakdown.Sync
			}
			if r.Breakdown.Virt > largest {
				largest = r.Breakdown.Virt
			}
			if r.IterationTime < largest*95/100 {
				t.Errorf("%s/%s: iteration %v below largest category %v", name, dn, r.IterationTime, largest)
			}
		}
	}
}

// Regression: a single-worker, non-shared-link design leaves syncCh nil; a
// schedule carrying sync ops (model-parallel builds them regardless of the
// worker count) used to panic on the nil channel. Collectives with one
// participant are no-ops, so the simulation must simply skip them.
func TestSingleWorkerSyncOpsDoNotPanic(t *testing.T) {
	d := NewDCDLA(accel.Default(), 1)
	s := train.MustBuild("AlexNet", 64, 1, train.ModelParallel)
	r, err := Simulate(d, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.IterationTime <= 0 {
		t.Fatalf("iteration time = %v", r.IterationTime)
	}
	if r.SyncTraffic != 0 || r.Breakdown.Sync != 0 {
		t.Fatalf("single worker must not charge sync: traffic=%v latency=%v",
			r.SyncTraffic, r.Breakdown.Sync)
	}
	// Shared-link single-worker variant exercises the s.Workers==1 branch
	// with a non-nil channel.
	mc := NewMCDLAB(accel.Default(), 1)
	if r, err = Simulate(mc, train.MustBuild("AlexNet", 64, 1, train.ModelParallel)); err != nil {
		t.Fatal(err)
	}
	if r.SyncTraffic != 0 {
		t.Fatal("shared-link single worker must not charge sync")
	}
}
