package system

// Instruction-stream golden test: the per-core instruction stream of every
// registry workload (default parameters, tiny scale) on the hybrid and the
// cache-based machine at 1, 4 and 16 cores is pinned by a SHA-256 digest in
// testdata/stream_digests.txt. The generator is free to change how it
// produces the stream (batching, buffering, laziness); it must not change a
// single field of a single instruction, nor the order of its random draws.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestStreamDigests ./internal/system
//
// and review the diff like any other behavioral change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/spm"
	"repro/internal/workloads"
)

const streamDigestPath = "testdata/stream_digests.txt"

// streamDigest drains p and returns its instruction count and the SHA-256 of
// every field of every instruction in fixed little-endian layout.
func streamDigest(p isa.Program) (int, [sha256.Size]byte) {
	h := sha256.New()
	var rec [8 * 8]byte
	n := 0
	for {
		inst, ok := p.Next()
		if !ok {
			break
		}
		n++
		le := binary.LittleEndian
		le.PutUint64(rec[0:], uint64(inst.Kind))
		le.PutUint64(rec[8:], inst.Addr)
		le.PutUint64(rec[16:], inst.Addr2)
		le.PutUint64(rec[24:], uint64(inst.Bytes))
		le.PutUint64(rec[32:], uint64(inst.Ops))
		le.PutUint64(rec[40:], uint64(inst.Tag))
		le.PutUint64(rec[48:], uint64(inst.Phase))
		le.PutUint64(rec[56:], inst.PC)
		h.Write(rec[:])
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return n, sum
}

func TestStreamDigests(t *testing.T) {
	var w bytes.Buffer
	for _, e := range workloads.Entries() {
		bench, err := workloads.BuildSpec(e.Name, nil, workloads.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []config.MemorySystem{config.HybridReal, config.CacheBased} {
			for _, cores := range []int{1, 4, 16} {
				cfg := Spec{System: sys, Benchmark: e.Name, Scale: workloads.Tiny, Cores: cores}.Config()
				var amap spm.AddressMap
				if cfg.HasSPM() {
					amap = spm.NewAddressMap(cfg.Cores, cfg.SPMSize)
				}
				for c := 0; c < cores; c++ {
					p := compiler.Generate(bench, genOptions(cfg, amap, c, DefaultSeed))
					n, sum := streamDigest(p)
					fmt.Fprintf(&w, "%s %s cores=%d core=%d insts=%d %x\n", e.Name, sys, cores, c, n, sum)
				}
			}
		}
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(streamDigestPath, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", streamDigestPath, w.Len())
		return
	}
	want, err := os.ReadFile(streamDigestPath)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test -run TestStreamDigests ./internal/system): %v", err)
	}
	if !bytes.Equal(want, w.Bytes()) {
		gl, wl := bytes.Split(w.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("instruction stream diverged from %s at line %d:\n got %s\nwant %s",
					streamDigestPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("instruction stream diverged from %s: %d lines, want %d", streamDigestPath, len(gl), len(wl))
	}
}
