package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"Cores", c.Cores, 64},
		{"IssueWidth", c.IssueWidth, 6},
		{"PipelineDepth", c.PipelineDepth, 13},
		{"ROBEntries", c.ROBEntries, 160},
		{"IQEntries", c.IQEntries, 64},
		{"LQEntries", c.LQEntries, 48},
		{"SQEntries", c.SQEntries, 32},
		{"L1DLatency", c.L1DLatency, 2},
		{"L1DSize", c.L1DSize, 32 << 10},
		{"L1DAssoc", c.L1DAssoc, 4},
		{"L2Latency", c.L2Latency, 15},
		// 256 KB/core in the paper, scaled with the workload footprints
		// to preserve the footprint:LLC ratio (DESIGN.md §5).
		{"L2SliceSize", c.L2SliceSize, 32 << 10},
		{"L2Assoc", c.L2Assoc, 16},
		{"LineSize", c.LineSize, 64},
		{"LinkLatency", c.LinkLatency, 1},
		{"RouterLatency", c.RouterLatency, 1},
		{"SPMLatency", c.SPMLatency, 2},
		{"SPMSize", c.SPMSize, 32 << 10},
		{"DMACmdQueue", c.DMACmdQueue, 32},
		{"DMABusQueue", c.DMABusQueue, 512},
		{"SPMDirEntries", c.SPMDirEntries, 32},
		{"FilterEntries", c.FilterEntries, 48},
		{"FilterDirEntries", c.FilterDirEntries, 4 << 10},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestForSystemFairnessRule(t *testing.T) {
	cb := ForSystem(CacheBased)
	if cb.L1DSize != 64<<10 {
		t.Fatalf("cache-based L1D = %d, want 64KB", cb.L1DSize)
	}
	if cb.L1DLatency != Default().L1DLatency {
		t.Fatal("fairness rule must not change L1D latency")
	}
	if cb.HasSPM() {
		t.Fatal("cache-based system must not have SPMs")
	}
	hy := ForSystem(HybridReal)
	if hy.L1DSize != 32<<10 || !hy.HasSPM() {
		t.Fatalf("hybrid L1D = %d, HasSPM = %v", hy.L1DSize, hy.HasSPM())
	}
	if err := cb.Validate(); err != nil {
		t.Fatalf("cache-based invalid: %v", err)
	}
}

func TestIdealCoherence(t *testing.T) {
	if !ForSystem(HybridIdeal).IdealCoherence() {
		t.Fatal("HybridIdeal must report ideal coherence")
	}
	if ForSystem(HybridReal).IdealCoherence() {
		t.Fatal("HybridReal must not report ideal coherence")
	}
	if ForSystem(CacheBased).IdealCoherence() {
		t.Fatal("CacheBased must not report ideal coherence")
	}
}

func TestSmallTestValid(t *testing.T) {
	c := SmallTest()
	if err := c.Validate(); err != nil {
		t.Fatalf("SmallTest invalid: %v", err)
	}
	if c.Cores != 4 || c.MeshWidth*c.MeshHeight != 4 {
		t.Fatalf("SmallTest geometry: %d cores, %dx%d", c.Cores, c.MeshWidth, c.MeshHeight)
	}
}

func TestValidateRejectsBadMesh(t *testing.T) {
	c := Default()
	c.MeshWidth = 7
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted 7x8 mesh for 64 cores")
	}
}

func TestValidateRejectsBadLineSize(t *testing.T) {
	c := Default()
	c.LineSize = 48
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted non-power-of-two line size")
	}
}

func TestValidateRejectsNonPow2Sets(t *testing.T) {
	c := Default()
	c.L1DSize = 3 << 10 // 3KB/4-way/64B = 12 sets
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted non-power-of-two set count")
	}
}

func TestValidateRejectsZeroQueues(t *testing.T) {
	c := Default()
	c.DMACmdQueue = 0
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted zero DMA command queue")
	}
}

func TestValidateCacheBasedIgnoresSPMFields(t *testing.T) {
	c := ForSystem(CacheBased)
	c.SPMSize = 0 // irrelevant without SPMs
	c.SPMDirEntries = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("cache-based config should ignore SPM fields: %v", err)
	}
}

func TestSystemString(t *testing.T) {
	for sys, want := range map[MemorySystem]string{
		CacheBased:  "cache",
		HybridIdeal: "hybrid-ideal",
		HybridReal:  "hybrid",
	} {
		if sys.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sys), sys.String(), want)
		}
	}
}

// TestSystemJSONSpelling: MarshalJSON spells every value, known or not, as
// json.Marshal spells its name, and only the known names decode back, in
// place or (when escaped) through the decoder.
func TestSystemJSONSpelling(t *testing.T) {
	for _, sys := range []MemorySystem{CacheBased, HybridIdeal, HybridReal, -1, 7} {
		got, err := sys.MarshalJSON()
		want, _ := json.Marshal(sys.String())
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d: MarshalJSON = %s, %v; want %s", int(sys), got, err, want)
		}
		var back MemorySystem
		err = json.Unmarshal(got, &back)
		if known := sys >= CacheBased && sys <= HybridReal; known != (err == nil) || known && back != sys {
			t.Fatalf("%d: decoded %s to %d, %v", int(sys), got, int(back), err)
		}
	}
	var back MemorySystem
	if err := json.Unmarshal([]byte(`"hybr\u0069d"`), &back); err != nil || back != HybridReal {
		t.Fatalf("escaped name decoded to %d, %v", int(back), err)
	}
}
