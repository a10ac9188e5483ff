package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"kvcsd/internal/core"
	"kvcsd/internal/obs"
)

// Helpers that turn what a traced system exposes — the registry a device
// fills when Options.Metrics is set — into per-layer metrics, and layers.json.

// deviceStageLayers is the part of the per-layer table every workload reads
// the same way: the device's per-stage means for point gets and bulk stores
// and its background-job high-water mark.
func deviceStageLayers(reg *obs.Registry) map[string]float64 {
	return map[string]float64{
		"ssd.media_stage_us_per_get":          stageMeanUs(reg, "Retrieve", "media"),
		"pcie.link_stage_us_per_get":          stageMeanUs(reg, "Retrieve", "link"),
		"nvme.queue_stage_us_per_get":         stageMeanUs(reg, "Retrieve", "queue"),
		"core.service_stage_us_per_get":       stageMeanUs(reg, "Retrieve", "service"),
		"core.service_stage_us_per_bulkstore": stageMeanUs(reg, "BulkStore", "service"),
		"device.bg_jobs_max":                  gaugeMax(reg, "engine/bg_jobs"),
	}
}

// stageMeanUs is the mean of one (op, stage) histogram in microseconds — the
// registry the device fills when Options.Metrics is set; 0 when absent.
func stageMeanUs(reg *obs.Registry, op, stage string) float64 {
	if reg == nil {
		return 0
	}
	h := reg.LookupHistogram(op + "/" + stage)
	if h == nil || h.Count() == 0 {
		return 0
	}
	return float64(h.Mean()) / 1e3
}

// idxCacheHitRatio infers the device's index-cache hit ratio from the media
// bytes a point get reads: one value block always, one index block more when
// the cache misses. The cache keeps its own hit counters private.
func idxCacheHitRatio(mediaBytesPerGet float64) float64 {
	block := float64(core.DefaultConfig().BlockBytes)
	return min(max(2-mediaBytesPerGet/block, 0), 1)
}

// serviceBusy sums every op's service-stage time recorded so far.
func serviceBusy(reg *obs.Registry) float64 {
	if reg == nil {
		return 0
	}
	var t float64
	for _, n := range reg.HistogramNames() {
		if len(n) > 8 && n[len(n)-8:] == "/service" {
			t += float64(reg.LookupHistogram(n).Sum())
		}
	}
	return t
}

// gaugeMax is the largest maximum among the gauges whose name ends in suffix
// (an array namespaces each device's gauges under "dev<N>/").
func gaugeMax(reg *obs.Registry, suffix string) float64 {
	if reg == nil {
		return 0
	}
	var m float64
	for _, n := range reg.GaugeNames() {
		if len(n) >= len(suffix) && n[len(n)-len(suffix):] == suffix {
			m = max(m, reg.LookupGauge(n).Max())
		}
	}
	return m
}

// layerRow is one per-layer metric in layers.json, with the prediction it
// was written down with before anything was measured.
type layerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"should_move"`
	On    string  `json:"on"`
}

func writeLayers(dir string, w workloadDef, c *config, vals map[string]float64, spans []spanSummary) error {
	rows := make([]layerRow, 0, len(perLayer))
	for _, d := range perLayer {
		rows = append(rows, layerRow{Name: d.name, Value: vals[d.name], Unit: d.unit, Moves: d.moves, On: d.on})
	}
	doc := map[string]any{
		"workload": w.name,
		"seed":     c.seed,
		"layers":   rows,
		"spans":    spans,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}
