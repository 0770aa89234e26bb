package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload on the miniature world at scale 0.05 with
// at most a couple of thousand requests, so the whole smoke test takes
// seconds.
var tinySizes = sizes{
	small: true, gridScale: 0.05, hotScale: 0.05, sweepScale: 0.05,
	warmup: 300, pinned: 300, maxOps: 1500,
	verifySamples: 60, gridSamples: 20, gridSetups: 2, serveSetups: 1,
}

// tinyPins are the seed-1 digests of the tiny configuration. grid-cold's
// is the sha256 of `factcheck -small -scale 0.05 -par 2` standard output.
var tinyPins = map[string]string{
	"grid-cold":    "7af8b735ad3e660b611d256c0c8223389229ca2c1c5ae6a3511ee34f36dccf62",
	"serve-hot":    "26207c037f1df9c6",
	"serve-sweep":  "004cd51307293eed",
	"serve-ingest": "358630517e786459",
}

func tinyRun(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	return runConfig{
		workload: workload, seed: 1, seconds: 300 * time.Millisecond, trace: traced,
		size: tinySizes, pins: tinyPins, workDir: t.TempDir(), log: io.Discard,
	}
}

// TestSmoke runs every workload of BENCHMARK.json in the tiny
// configuration, untraced and traced, and checks that every metric the
// mode reports is printed, finite and in its declared unit, and that the
// correctness checks pass.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				c := tinyRun(t, w.Name, traced)
				res, err := measure(context.Background(), c, sp)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printResult(&out, res, sp.reported(traced)); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool      `json:"correct"`
					Attempted int64     `json:"attempted"`
					Failed    int64     `json:"failed"`
					Metrics   metricSet `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				want := sp.reported(traced)
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s printed in %q, declared %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if traced && res.tracer == nil {
					t.Error("traced run kept no spans")
				}
				if d := res.Info["digest"]; d != tinyPins[w.Name] {
					t.Errorf("digest %v, pinned %q", d, tinyPins[w.Name])
				}
			})
		}
	}
}
