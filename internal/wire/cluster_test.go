package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pmv/internal/expr"
	"pmv/internal/value"
)

func TestHelloRoundTrip(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil {
		t.Fatal(err)
	}
	if v != ProtocolVersion {
		t.Fatalf("hello carries version %d, built with %d", v, ProtocolVersion)
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	if _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("oversized hello accepted")
	}
}

func TestVersionErrRoundTrip(t *testing.T) {
	v, err := DecodeVersionErr(EncodeVersionErr(7))
	if err != nil || v != 7 {
		t.Fatalf("version-error round trip = %d, %v", v, err)
	}
	if _, err := DecodeVersionErr(nil); err == nil {
		t.Fatal("empty version-error accepted")
	}
}

func TestEpochErrRoundTrip(t *testing.T) {
	for _, e := range []uint64{0, 1, 1 << 40} {
		got, err := DecodeEpochErr(EncodeEpochErr(e))
		if err != nil || got != e {
			t.Fatalf("epoch-error round trip for %d = %d, %v", e, got, err)
		}
	}
	if _, err := DecodeEpochErr([]byte{1, 2, 3}); err == nil {
		t.Fatal("short epoch-error accepted")
	}
}

func probeFixture() ProbeRequest {
	return ProbeRequest{
		View:  "pmv_on_sale",
		Epoch: 42,
		Parts: []ProbePart{
			{Key: "k1", Exact: true},
			{Key: "k2", Conds: []expr.CondInstance{
				{Values: []value.Value{value.Int(3)}},
				{Intervals: []expr.Interval{{Lo: value.Int(1), Hi: value.Int(9), LoIncl: true}}},
			}},
		},
	}
}

func TestProbeRoundTrip(t *testing.T) {
	req := probeFixture()
	b, err := EncodeProbe(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual would trip on nil-vs-empty slice canonicalization, so
	// pin the semantic content field by field.
	if got.View != req.View || got.Epoch != req.Epoch || len(got.Parts) != len(req.Parts) {
		t.Fatalf("probe round trip changed request:\n got  %+v\n want %+v", got, req)
	}
	for i, p := range got.Parts {
		w := req.Parts[i]
		if p.Key != w.Key || p.Exact != w.Exact || len(p.Conds) != len(w.Conds) {
			t.Fatalf("part %d changed: got %+v want %+v", i, p, w)
		}
	}
	if len(got.Parts[1].Conds[0].Values) != 1 || len(got.Parts[1].Conds[1].Intervals) != 1 {
		t.Fatalf("part conditions lost content: %+v", got.Parts[1].Conds)
	}
	// Truncations at every byte boundary must error, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := DecodeProbe(b[:i]); err == nil {
			t.Fatalf("probe truncated to %d/%d bytes decoded cleanly", i, len(b))
		}
	}
}

func TestRefillRoundTrip(t *testing.T) {
	req := RefillRequest{
		View:  "pmv_on_sale",
		Epoch: 9,
		Tuples: []value.Tuple{
			{value.Int(1), value.Str("a"), value.Int(3), value.Int(0)},
			{value.Int(2), value.Null(), value.Int(3), value.Int(1)},
		},
	}
	b, err := EncodeRefill(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRefill(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("refill round trip changed request:\n got  %+v\n want %+v", got, req)
	}
	for i := 0; i < len(b); i++ {
		if _, err := DecodeRefill(b[:i]); err == nil {
			t.Fatalf("refill truncated to %d/%d bytes decoded cleanly", i, len(b))
		}
	}
}

// TestVersionAndEpochSentinels pins the sentinel identities the client
// and router match on.
func TestVersionAndEpochSentinels(t *testing.T) {
	if ErrVersion == nil || ErrEpoch == nil {
		t.Fatal("cluster sentinels missing")
	}
	if errors.Is(ErrVersion, ErrEpoch) {
		t.Fatal("version and epoch sentinels alias each other")
	}
}

// TestProbeBudgetTail pins the optional-tail contract: a nonzero
// budget adds exactly 8 bytes, zero adds none (byte-identical to a
// pre-budget encoder), and an explicit zero tail is rejected so the
// encoding stays canonical.
func TestProbeBudgetTail(t *testing.T) {
	req := probeFixture()
	plain, err := EncodeProbe(req)
	if err != nil {
		t.Fatal(err)
	}
	req.BudgetNs = 500e6
	b, err := EncodeProbe(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(plain)+8 {
		t.Fatalf("budget tail costs %d bytes, want 8", len(b)-len(plain))
	}
	got, err := DecodeProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.BudgetNs != 500e6 {
		t.Fatalf("budget round trip = %d, want %d", got.BudgetNs, uint64(500e6))
	}
	req.BudgetNs = 0
	again, err := EncodeProbe(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, plain) {
		t.Fatal("zero budget changed the probe encoding")
	}
	if _, err := DecodeProbe(append(plain[:len(plain):len(plain)], 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("explicit zero budget tail accepted")
	}
}

func TestRefillBudgetTail(t *testing.T) {
	req := RefillRequest{View: "v", Epoch: 3,
		Tuples: []value.Tuple{{value.Int(1)}}}
	plain, err := EncodeRefill(req)
	if err != nil {
		t.Fatal(err)
	}
	req.BudgetNs = 250e6
	b, err := EncodeRefill(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(plain)+8 {
		t.Fatalf("budget tail costs %d bytes, want 8", len(b)-len(plain))
	}
	got, err := DecodeRefill(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.BudgetNs != 250e6 {
		t.Fatalf("budget round trip = %d, want %d", got.BudgetNs, uint64(250e6))
	}
	if _, err := DecodeRefill(append(plain[:len(plain):len(plain)], 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("explicit zero budget tail accepted")
	}
}

func FuzzDecodeProbe(f *testing.F) {
	if b, err := EncodeProbe(probeFixture()); err == nil {
		f.Add(b)
	}
	budgeted := probeFixture()
	budgeted.BudgetNs = 123456789
	if b, err := EncodeProbe(budgeted); err == nil {
		f.Add(b)
	}
	if b, err := EncodeProbe(ProbeRequest{View: "v", Epoch: 1}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "probe", data, DecodeProbe, EncodeProbe)
	})
}

func FuzzDecodeRefill(f *testing.F) {
	if b, err := EncodeRefill(RefillRequest{
		View: "v", Epoch: 3,
		Tuples: []value.Tuple{{value.Int(1), value.Bool(true)}},
	}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeRefill(RefillRequest{
		View: "v", Epoch: 3, BudgetNs: 987654321,
		Tuples: []value.Tuple{{value.Int(1), value.Bool(true)}},
	}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "refill", data, DecodeRefill, EncodeRefill)
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(EncodeHello())
	f.Add(EncodeVersionErr(3))
	f.Add(EncodeEpochErr(17))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "hello", data, DecodeHello, func(v byte) ([]byte, error) { return []byte{v}, nil })
		canonical(t, "version error", data, DecodeVersionErr, func(v byte) ([]byte, error) { return EncodeVersionErr(v), nil })
		canonical(t, "epoch error", data, DecodeEpochErr, func(e uint64) ([]byte, error) { return EncodeEpochErr(e), nil })
	})
}
