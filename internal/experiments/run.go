package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/memcentric/mcdla/internal/accel"
	"github.com/memcentric/mcdla/internal/core"
	"github.com/memcentric/mcdla/internal/dnn"
	"github.com/memcentric/mcdla/internal/report"
	"github.com/memcentric/mcdla/internal/runner"
	"github.com/memcentric/mcdla/internal/train"
	"github.com/memcentric/mcdla/internal/units"
)

// RunReportFor simulates one design point through the shared engine — so
// the CLI `run` subcommand and repeated `/v1/run` requests hit the memo
// cache — and builds the single-simulation report. A zero seqlen keeps the
// workload default; workers must match the design's device count (≤ 0
// selects the paper's 8).
func RunReportFor(ctx context.Context, d core.Design, workload string, strategy train.Strategy, batch, seqlen int, prec train.Precision, workers int) (*report.Report, error) {
	if workers <= 0 {
		workers = Workers
	}
	job := runner.Job{
		Design: d, Workload: workload, Strategy: strategy,
		Batch: batch, Workers: workers, SeqLen: seqlen, Precision: prec, Tag: "run",
	}
	rs, err := submit(ctx, []runner.Job{job})
	if err != nil {
		return nil, err
	}
	r := rs[0]
	// The weight footprint comes from the engine's memo, so neither a
	// memo hit nor a store hit builds the workload graph just for the
	// resident-weights line.
	weights, err := weightBytes(job)
	if err != nil {
		return nil, err
	}
	// Resident parameter footprint: the fp16 compute copy at base size, or
	// the fp32 master weights (Mixed/FP32) at twice it; model-parallel
	// devices hold a 1/workers slice.
	resident := units.Bytes(weights * prec.MasterScale())
	if strategy == train.ModelParallel {
		resident = units.Bytes(int64(resident) / int64(workers))
	}
	kvs := []report.KV{
		{Key: "iteration_time", Label: "  iteration time:        ", Text: r.IterationTime.String(), Value: r.IterationTime.Seconds()},
		{Key: "compute_standalone", Label: "  compute (standalone):  ", Text: r.Breakdown.Compute.String(), Value: r.Breakdown.Compute.Seconds()},
		{Key: "sync_standalone", Label: "  sync (standalone):     ", Text: r.Breakdown.Sync.String(), Value: r.Breakdown.Sync.Seconds()},
		{Key: "virt_standalone", Label: "  virt (standalone):     ", Text: r.Breakdown.Virt.String(), Value: r.Breakdown.Virt.Seconds()},
		{Key: "virt_traffic_per_device", Label: "  virt traffic/device:   ", Text: r.VirtTraffic.String(), Value: int64(r.VirtTraffic)},
		{Key: "sync_payload_per_device", Label: "  sync payload/device:   ", Text: r.SyncTraffic.String(), Value: int64(r.SyncTraffic)},
		{Key: "weights_resident_per_device", Label: "  weights resident/dev:  ", Text: resident.String(), Value: int64(resident)},
		{Key: "prefetch_stalls", Label: "  prefetch stalls:       ", Text: r.StallVirt.String(), Value: r.StallVirt.Seconds()},
	}
	if r.HostBytes > 0 {
		kvs = append(kvs, report.KV{
			Key:   "cpu_socket_bandwidth",
			Label: "  CPU socket bandwidth:  ",
			Text:  fmt.Sprintf("avg %v, max %v", r.AvgHostSocketBW, r.MaxHostSocketBW),
			Value: struct {
				AvgGBps float64 `json:"avg_gbps"`
				MaxGBps float64 `json:"max_gbps"`
			}{r.AvgHostSocketBW.GBps(), r.MaxHostSocketBW.GBps()},
		})
	}
	return &report.Report{
		Name: "run",
		Title: fmt.Sprintf("%s × %s (%v, %v, batch %d, %d devices)",
			r.Design, r.Workload, r.Strategy, r.Precision, batch, workers),
		Sections: []report.Section{{KVs: kvs}},
	}, nil
}

// TransformerStudyReport concatenates the seqlen × precision sweep and the
// attention-compression headline into the `mcdla transformer` document.
func TransformerStudyReport(rows []TransformerRow, cRows []AttnCompressRow) *report.Report {
	return report.Merge("transformer", TransformerSweepReport(rows), AttentionCompressReport(cRows))
}

// ConfigReport builds the Table II inventory: device-node, memory-node and
// the evaluated design points. The layouts are inventory prose predating the
// typed layer, kept as heading + note lines for byte parity.
func ConfigReport() *report.Report {
	dev := accel.Default()
	device := splitBlock(fmt.Sprintf(`Device-node (Table II):
  PEs:              %d × %d MACs @ %.0f GHz (peak %.0f TMAC/s)
  SRAM per PE:      %v
  HBM:              %v, %d-cycle latency
  links:            N=%d × B=%v (aggregate %v)
`, dev.PEs, dev.MACsPerPE, dev.FreqHz/1e9, dev.PeakMACsPerSec()/1e12,
		dev.SRAMPerPE, dev.MemBW, dev.MemLatencyCycles,
		dev.Links, dev.LinkBW, dev.AggregateLinkBW()))
	memory := splitBlock(MemNodeSummary())
	designs := report.Section{Heading: "Design points:"}
	for _, d := range core.StandardDesigns() {
		designs.Notes = append(designs.Notes,
			fmt.Sprintf("  %-10s virt=%v sync=%v×%d-node rings  shared-links=%v oracle=%v",
				d.Name, d.VirtBW, d.Sync.AggregateBW(), d.Sync.Nodes, d.SharedLinks, d.Oracle))
	}
	return &report.Report{
		Name:     "config",
		Sections: []report.Section{device, memory, designs},
	}
}

// NetworksReport builds the workload inventory: Table III benchmarks plus
// the transformer family.
func NetworksReport() *report.Report {
	bench := report.Section{Heading: "Table III benchmarks (per-device shapes at batch 64):"}
	for _, name := range dnn.BenchmarkNames() {
		g := dnn.MustBuild(name, 64)
		bench.Notes = append(bench.Notes,
			fmt.Sprintf("  %s  (paper layer count: %d)", g.Summary(), dnn.PaperLayerCount(name)))
	}
	tf := report.Section{Heading: "Transformer workloads (per-device shapes at batch 64, default seqlen):"}
	for _, name := range dnn.TransformerNames() {
		g := dnn.MustBuild(name, 64)
		tf.Notes = append(tf.Notes,
			fmt.Sprintf("  %s  (blocks: %d, seqlen: %d, scores: %.1f MB)",
				g.Summary(), dnn.PaperLayerCount(name), g.SeqLen, float64(g.ScoreBytes())/1e6))
	}
	return &report.Report{Name: "networks", Sections: []report.Section{bench, tf}}
}

// splitBlock turns a heading-plus-indented-lines string (trailing newline
// included) into a report section preserving every line verbatim.
func splitBlock(s string) report.Section {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	return report.Section{Heading: lines[0], Notes: lines[1:]}
}
