package experiments

import (
	"context"
	"fmt"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/compress"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/memnode"
	"github.com/memcentric/mcdla/internal/metrics"
	"github.com/memcentric/mcdla/internal/power"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// Headline summarizes the §V-B aggregate comparison.
type Headline struct {
	// Speedups of each design over DC-DLA, per strategy (harmonic means).
	DP, MP map[string]float64
	// Average combines both strategies (the paper's "average 2.8×").
	Average map[string]float64
	// OracleFraction is MC-DLA(B)'s performance relative to DC-DLA(O).
	OracleFractionDP, OracleFractionMP float64
}

// RunHeadline computes the §V-B aggregates.
func RunHeadline(ctx context.Context) (Headline, error) {
	h := Headline{
		DP: map[string]float64{}, MP: map[string]float64{}, Average: map[string]float64{},
	}
	perStrategy := func(strategy train.Strategy) (map[string][]float64, []float64, error) {
		rs, err := runAll(ctx, strategy, Batch)
		if err != nil {
			return nil, nil, err
		}
		sp := map[string][]float64{}
		var oracle []float64
		for _, net := range dnn.BenchmarkNames() {
			dc := rs[net]["DC-DLA"].IterationTime.Seconds()
			for _, dn := range designNames {
				sp[dn] = append(sp[dn], dc/rs[net][dn].IterationTime.Seconds())
			}
			oracle = append(oracle, rs[net]["MC-DLA(B)"].Performance(rs[net]["DC-DLA(O)"]))
		}
		return sp, oracle, nil
	}
	dp, odp, err := perStrategy(train.DataParallel)
	if err != nil {
		return h, err
	}
	mp, omp, err := perStrategy(train.ModelParallel)
	if err != nil {
		return h, err
	}
	for _, dn := range designNames {
		h.DP[dn] = metrics.HarmonicMean(dp[dn])
		h.MP[dn] = metrics.HarmonicMean(mp[dn])
		h.Average[dn] = metrics.HarmonicMean(append(append([]float64(nil), dp[dn]...), mp[dn]...))
	}
	h.OracleFractionDP = metrics.HarmonicMean(odp)
	h.OracleFractionMP = metrics.HarmonicMean(omp)
	return h, nil
}

// HeadlineReport builds the typed §V-B aggregate report.
func HeadlineReport(h Headline) *report.Report {
	t := report.NewTable("design", "DP speedup", "MP speedup", "average")
	for _, dn := range designNames {
		t.AddRow(report.Str(dn),
			report.Numf("%.2f", h.DP[dn]), report.Numf("%.2f", h.MP[dn]), report.Numf("%.2f", h.Average[dn]))
	}
	return &report.Report{
		Name:  "headline",
		Title: "Headline (§V-B) — speedup over DC-DLA (harmonic means)",
		Sections: []report.Section{{Table: t, Notes: []string{
			"Paper reference: MC-DLA(B) 3.5x DP / 2.1x MP / 2.8x average; HC-DLA 1.32x DP / 1.38x MP.",
			fmt.Sprintf("MC-DLA(B) vs oracle: DP %.0f%%, MP %.0f%% (paper: 84%%-99%%, avg 95%%)",
				100*h.OracleFractionDP, 100*h.OracleFractionMP),
		}}},
	}
}

// ----------------------------------------------------------- §V-B sweeps

// SensitivityRow is one §V-B design variant's aggregate result.
type SensitivityRow struct {
	Variant string
	// Gap is the harmonic-mean MC-DLA(B)/DC-DLA-variant speedup across the
	// studied workloads and both strategies.
	Gap float64
	// Note carries the paper's reference value.
	Note string
}

// sensVariant is one §V-B design variant: its DC-DLA counterpart (which may
// depend on the workload, as with cDMA's per-network compression factor) and
// the device the MC-DLA(B) comparison point is built from.
type sensVariant struct {
	name, note string
	workloads  []string
	dc         func(net string) core.Design
	dev        accel.Config
}

// sensVariants builds the studied variants: the baseline, PCIe gen4 DC-DLA,
// a TPUv2-class device-node, a DGX-2-class scaled node, and cDMA-compressed
// DC-DLA on the CNNs.
func sensVariants() []sensVariant {
	all := dnn.BenchmarkNames()
	dev := accel.Default()
	tpu := accel.TPUv2Class()

	dgx2 := dev
	dgx2.Name = "DGX-2-class"
	dgx2.MACsPerPE *= 2                       // 2 PFLOPS-class node
	dgx2.LinkBW = units.GBps(2400.0 / 8 / 12) // 2.4 TB/s of device-side interconnect
	dgx2.Links = 12

	plainDC := func(dev accel.Config) func(string) core.Design {
		return func(string) core.Design { return core.NewDCDLA(dev, Workers) }
	}
	return []sensVariant{
		{"baseline", "paper: 2.8x", all, plainDC(dev), dev},
		{"DC-DLA with PCIe gen4", "paper: gap narrows to 2.1x", all,
			func(string) core.Design { return core.NewDCDLAGen4(dev, Workers) }, dev},
		{"TPUv2-class device-node", "paper: 3.2x", all, plainDC(tpu), tpu},
		{"DGX-2-class node", "paper: 2.9x", all, plainDC(dgx2), dgx2},
		{"DC-DLA with cDMA (CNNs)", "paper: gap narrows to 2.3x", dnn.CNNNames(),
			func(net string) core.Design {
				// cDMA: the compressor multiplies the effective PCIe
				// bandwidth by the workload's compression factor.
				d := core.NewDCDLA(dev, Workers)
				g := dnn.MustBuild(net, Batch)
				d.VirtBW = units.Bandwidth(float64(d.VirtBW) * compress.GraphRatio(g))
				return d
			}, dev},
	}
}

// Sensitivity reproduces the §V-B sensitivity studies. All five variants'
// DC-variant and MC-DLA(B) simulations go out as one grid, so the runner
// fans the whole sweep across its workers and serves the MC-DLA(B) points
// shared between variants from its cache.
func Sensitivity(ctx context.Context) ([]SensitivityRow, error) {
	variants := sensVariants()
	strategies := []train.Strategy{train.DataParallel, train.ModelParallel}
	var jobs []runner.Job
	for _, v := range variants {
		for _, strategy := range strategies {
			for _, net := range v.workloads {
				jobs = append(jobs,
					runner.Job{Design: v.dc(net), Workload: net, Strategy: strategy,
						Batch: Batch, Workers: Workers, Tag: v.name},
					runner.Job{Design: core.NewMCDLAB(v.dev, Workers), Workload: net, Strategy: strategy,
						Batch: Batch, Workers: Workers, Tag: v.name})
			}
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []SensitivityRow
	i := 0
	for _, v := range variants {
		var ratios []float64
		for range strategies {
			for range v.workloads {
				ratios = append(ratios, rs[i].IterationTime.Seconds()/rs[i+1].IterationTime.Seconds())
				i += 2
			}
		}
		rows = append(rows, SensitivityRow{v.name, metrics.HarmonicMean(ratios), v.note})
	}
	return rows, nil
}

// SensitivityReport builds the typed §V-B sensitivity report.
func SensitivityReport(rows []SensitivityRow) *report.Report {
	t := report.NewTable("variant", "MC-DLA(B) gap", "reference")
	for _, r := range rows {
		t.AddRow(report.Str(r.Variant), report.Num(fmt.Sprintf("%.2fx", r.Gap), r.Gap), report.Str(r.Note))
	}
	return &report.Report{
		Name:     "sens",
		Title:    "Sensitivity (§V-B): MC-DLA(B) speedup under design variants",
		Sections: []report.Section{{Table: t}},
	}
}

// ------------------------------------------------------------ §V-D scaling

// ScalingRow is one point of the §V-D scalability experiment.
type ScalingRow struct {
	Network string
	GPUs    int
	// SpeedupOracle is the scaling without memory virtualization (near
	// ideal); SpeedupVirt is with virtualization over the shared host
	// interface; SpeedupMC is MC-DLA(B), which regains the scaling.
	SpeedupOracle, SpeedupVirt, SpeedupMC float64
}

// Scalability reproduces §V-D: strong scaling of the four CNNs across 1, 4,
// and 8 devices. The DC-DLA host interface models the shared per-socket root
// complex (one sustained ×16 per socket), which is what breaks scaling.
func Scalability(ctx context.Context) ([]ScalingRow, error) {
	gpuCounts := []int{1, 4, 8}
	dev := accel.Default()
	var jobs []runner.Job
	for _, net := range dnn.CNNNames() {
		for _, gpus := range gpuCounts {
			dc := core.NewDCDLA(dev, gpus)
			dc.HostSocketShared = units.GBps(PCIeSustainedGBps)
			for _, d := range []core.Design{dc, core.NewDCDLAO(dev, gpus), core.NewMCDLAB(dev, gpus)} {
				jobs = append(jobs, runner.Job{
					Design: d, Workload: net, Strategy: train.DataParallel,
					Batch: Batch, Workers: gpus, Tag: "scale",
				})
			}
		}
	}
	rs, err := submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	i := 0
	for _, net := range dnn.CNNNames() {
		base := map[string]float64{}
		for _, gpus := range gpuCounts {
			virt := rs[i].IterationTime.Seconds()
			oracle := rs[i+1].IterationTime.Seconds()
			mc := rs[i+2].IterationTime.Seconds()
			i += 3
			if gpus == 1 {
				base["virt"], base["oracle"], base["mc"] = virt, oracle, mc
			}
			rows = append(rows, ScalingRow{
				Network:       net,
				GPUs:          gpus,
				SpeedupOracle: base["oracle"] / oracle,
				SpeedupVirt:   base["virt"] / virt,
				SpeedupMC:     base["mc"] / mc,
			})
		}
	}
	return rows, nil
}

// PCIeSustainedGBps is the sustained host bandwidth used by the scalability
// experiment's shared-socket model.
const PCIeSustainedGBps = 12

// ScalabilityReport builds the typed §V-D report.
func ScalabilityReport(rows []ScalingRow) *report.Report {
	t := report.NewTable("network", "GPUs", "no-virtualization", "DC-DLA (virt)", "MC-DLA(B)")
	for _, r := range rows {
		t.AddRow(report.Str(r.Network), report.Int(r.GPUs),
			report.Num(fmt.Sprintf("%.2fx", r.SpeedupOracle), r.SpeedupOracle),
			report.Num(fmt.Sprintf("%.2fx", r.SpeedupVirt), r.SpeedupVirt),
			report.Num(fmt.Sprintf("%.2fx", r.SpeedupMC), r.SpeedupMC))
	}
	return &report.Report{
		Name:     "scale",
		Title:    "Scalability (§V-D): strong scaling of CNN training (paper: virt caps at 1.3x/2.7x; MC-DLA regains it)",
		Sections: []report.Section{{Table: t}},
	}
}

// ------------------------------------------------------------- Table IV

// Table4Report builds the typed Table IV / §V-C report.
func Table4Report() *report.Report {
	t := report.NewTable("DDR4 module", "DIMM TDP (W)", "node TDP (W)", "GB/W", "pool (TB)", "system power", "perf/W @2.8x")
	for _, r := range power.AnalyzeAll() {
		t.AddRow(report.Str(r.DIMM.Name),
			report.Numf("%.1f", r.DIMM.TDPWatts),
			report.Numf("%.0f", r.NodeTDP),
			report.Numf("%.1f", r.GBPerWatt),
			report.Numf("%.2f", r.PoolTB),
			report.Num(fmt.Sprintf("+%.0f%%", 100*r.OverheadFraction), 100*r.OverheadFraction),
			report.Num(fmt.Sprintf("%.1fx", power.PerfPerWatt(2.8, r.OverheadFraction)),
				power.PerfPerWatt(2.8, r.OverheadFraction)))
	}
	lo, hi := power.LowPowerChoice(), power.HighCapacityChoice()
	return &report.Report{
		Name:  "tab4",
		Title: "Table IV (§V-C): memory-node power (DDR4-2400, 10 DIMMs per node, 8 nodes)",
		Sections: []report.Section{{Table: t, Notes: []string{
			"Paper reference: +7% (8 GB RDIMM) to +31% (128 GB LRDIMM) system power;",
			fmt.Sprintf("perf/W gain 2.6x to 2.1x; pool up to %.1f TB. Low-power pick: %s (+%.0f%%); capacity pick: %s (%.1f GB/W).",
				hi.PoolTB, lo.DIMM.Name, 100*lo.OverheadFraction, hi.DIMM.Name, hi.GBPerWatt),
		}}},
	}
}

// MemNodeSummary prints the Table II / §III-A memory-node configuration.
func MemNodeSummary() string {
	c := memnode.Default()
	return fmt.Sprintf(`Memory-node (Table II / §III-A):
  DIMMs:            %d × %s
  capacity:         %v (pool of 8: %.1f TB)
  memory bandwidth: %v
  links:            N=%d × B=%v (groups M=%d, %v per group)
`, c.DIMMCount, c.DIMM.Name, c.Capacity(), float64(memnode.PoolCapacity(c, 8))/1e12,
		c.MemBW(), c.Links, c.LinkBW, c.Groups, c.GroupBW())
}
