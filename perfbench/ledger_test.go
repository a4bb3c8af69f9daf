package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestAttributeChargesInnermostModuleFrame(t *testing.T) {
	for _, c := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"eventq heap", []string{"container/heap.Pop", "vdm/internal/eventq.(*Sim).Run", "vdm/internal/sim.Run"}, "eventq"},
		{"allocation in core", []string{"runtime.mallocgc", "runtime.newobject", "vdm/internal/core.(*Node).handleInfo", "vdm/internal/overlay.(*Network).deliver"}, "core"},
		{"sub-package folds into its module", []string{"vdm/internal/obs/simprof.(*Recorder).Flush", "vdm/internal/sim.Run"}, "obs"},
		{"unlisted module", []string{"vdm/internal/scenario.Churn", "vdm/internal/sim.Run"}, "other"},
		{"GC worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{"scheduler", []string{"internal/runtime/syscall.Syscall6", "runtime.netpoll", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"benchmark code", []string{"syscall.Syscall", "main.processCPU", "main.main"}, "other"},
		{"empty", nil, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// pb is a minimal protocol buffer encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(field, inner)
}

// TestLedgerFromProfile decodes a hand-built gzip'd pprof profile in the
// shape runtime/pprof writes: packed location ids and values, inlined
// lines innermost first, a samples/count and a cpu/nanoseconds type.
func TestLedgerFromProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"vdm/internal/eventq.(*Sim).Run", "vdm/internal/underlay.(*RouterUnderlay).oneWay",
		"vdm/internal/sim.Run", "runtime.gcBgMarkWorker", "main.main"}
	prof := &pb{}
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	prof.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	// Functions 1..5 name strings 5..9.
	for i := uint64(1); i <= 5; i++ {
		prof.bytes(5, (&pb{}).varint(1, i).varint(2, i+4).b)
	}
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).varint(2, 10).b }
	// Location 1: underlay inlined into eventq (innermost first).
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(2)).bytes(4, line(1)).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(3)).b) // sim.Run
	prof.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(4)).b) // GC worker
	prof.bytes(4, (&pb{}).varint(1, 4).bytes(4, line(5)).b) // main.main
	prof.bytes(2, (&pb{}).packed(1, 1, 2).packed(2, 3, 30e6).b)
	prof.bytes(2, (&pb{}).packed(1, 2).packed(2, 1, 10e6).b)
	prof.bytes(2, (&pb{}).packed(1, 3).packed(2, 2, 20e6).b)
	// An unpacked sample: one varint per location id and value.
	prof.bytes(2, (&pb{}).varint(1, 4).varint(2, 1).varint(2, 10e6).b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := ledgerFromProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"underlay": 0.03, "sim": 0.01, "runtime": 0.02, "other": 0.01}
	if l.Samples != 4 || len(l.CPU) != len(want) {
		t.Fatalf("ledger = %+v, want 4 samples over %v", l, want)
	}
	for k, v := range want {
		if math.Abs(l.CPU[k]-v) > 1e-12 {
			t.Errorf("%s = %v s, want %v", k, l.CPU[k], v)
		}
	}
}

func TestLedgerRejectsGarbage(t *testing.T) {
	if _, err := ledgerFromProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
