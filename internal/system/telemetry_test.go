package system

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestRecorderResultsIdentical pins the telemetry package's core contract:
// attaching a Recorder — sampling and tracing both on — observes the run
// without perturbing it. The Results of a recorded run must equal the plain
// run's bit for bit.
func TestRecorderResultsIdentical(t *testing.T) {
	spec := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Cores: 4}

	plain, err := spec.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder(64, 1<<12)
	recorded, _, err := spec.ExecuteObserved(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, recorded) {
		t.Errorf("recorded run's Results differ from plain run:\nplain:    %+v\nrecorded: %+v", plain, recorded)
	}
}

// TestRecordedRunProducesTelemetry checks the machine wiring end to end: a
// tiny run with sampling and tracing enabled yields a non-empty time series
// over the machine's probe schema and a non-empty event trace.
func TestRecordedRunProducesTelemetry(t *testing.T) {
	spec := Spec{System: config.HybridReal, Benchmark: "IS", Scale: workloads.Tiny, Cores: 4}
	rec := telemetry.NewRecorder(64, 1<<14)
	if _, _, err := spec.ExecuteObserved(context.Background(), rec); err != nil {
		t.Fatal(err)
	}

	ts := rec.Series()
	if len(ts.Names) == 0 {
		t.Fatal("recorder has no probes — Machine.Attach registered nothing")
	}
	if len(ts.Epochs) == 0 {
		t.Fatal("recorded run produced no epochs")
	}
	if ts.FinalCycle == 0 {
		t.Error("FinalCycle not stamped")
	}
	for _, want := range []string{"core.retired", "noc.flithops"} {
		found := false
		for _, n := range ts.Names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("probe %q missing from series names", want)
		}
	}
	for i, ep := range ts.Epochs {
		if len(ep.Deltas) != len(ts.Names) {
			t.Fatalf("epoch %d has %d deltas for %d names", i, len(ep.Deltas), len(ts.Names))
		}
	}

	tr := rec.Tracer()
	if tr == nil {
		t.Fatal("Tracer() = nil with tracing enabled")
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	seen := map[telemetry.Kind]bool{}
	for _, e := range tr.Events() {
		seen[e.Kind] = true
	}
	for _, k := range []telemetry.Kind{telemetry.KNoCSend, telemetry.KCohAccess, telemetry.KStall} {
		if !seen[k] {
			t.Errorf("no %v events in a hybrid IS run", k)
		}
	}
}

// TestUnrecordedRunPaysNothing pins the disabled-path contract from the
// machine's side: ExecuteObserved(nil) is exactly ExecuteContext.
func TestUnrecordedRunPaysNothing(t *testing.T) {
	spec := Spec{System: config.HybridReal, Benchmark: "EP", Scale: workloads.Tiny, Cores: 4}
	a, err := spec.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := spec.ExecuteObserved(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("ExecuteObserved(nil) diverged from ExecuteContext:\n%+v\n%+v", a, b)
	}
}
