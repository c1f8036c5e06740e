package wire

import (
	"reflect"
	"testing"

	"pmv/internal/value"
)

func updateFixture() UpdateRequest {
	return UpdateRequest{
		Maint: true,
		Ops: []UpdateOp{
			{Kind: OpInsert, Rel: "sale", Tuple: value.Tuple{value.Int(1), value.Str("x"), value.Int(3)}},
			{Kind: OpDelete, Rel: "sale", Col: "pid", Val: value.Int(7)},
			{Kind: OpUpdate, Rel: "product", Col: "pid", Val: value.Int(2), SetCol: "price", SetVal: value.Float(9.5)},
		},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	req := updateFixture()
	b, err := EncodeUpdate(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Maint != req.Maint || len(got.Ops) != len(req.Ops) {
		t.Fatalf("update round trip changed request:\n got  %+v\n want %+v", got, req)
	}
	for i, op := range got.Ops {
		w := req.Ops[i]
		if op.Kind != w.Kind || op.Rel != w.Rel || op.Col != w.Col || op.SetCol != w.SetCol {
			t.Fatalf("op %d changed: got %+v want %+v", i, op, w)
		}
	}
	if !reflect.DeepEqual(got.Ops[0].Tuple, req.Ops[0].Tuple) {
		t.Fatalf("insert tuple changed: %+v", got.Ops[0].Tuple)
	}
	if value.Compare(got.Ops[2].SetVal, req.Ops[2].SetVal) != 0 {
		t.Fatalf("update assignment value changed: %+v", got.Ops[2].SetVal)
	}
	// Truncations at every byte boundary must error, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := DecodeUpdate(b[:i]); err == nil {
			t.Fatalf("update truncated to %d/%d bytes decoded cleanly", i, len(b))
		}
	}
}

func TestUpdateRejectsBadKind(t *testing.T) {
	req := UpdateRequest{Ops: []UpdateOp{{Kind: 9, Rel: "r"}}}
	if _, err := EncodeUpdate(req); err == nil {
		t.Fatal("unknown op kind encoded cleanly")
	}
	b, err := EncodeUpdate(UpdateRequest{Ops: []UpdateOp{{Kind: OpDelete, Rel: "r", Col: "c", Val: value.Int(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	b[3] = 9 // flags(1) + nops(2), first byte of op 0 is its kind
	if _, err := DecodeUpdate(b); err == nil {
		t.Fatal("unknown op kind decoded cleanly")
	}
}

func invalidateFixture() InvalidateRequest {
	return InvalidateRequest{
		View:  "pmv_on_sale",
		Epoch: 42,
		Keys:  []string{"k1", "", "a longer binary\x00key"},
	}
}

func TestInvalidateRoundTrip(t *testing.T) {
	for _, req := range []InvalidateRequest{
		invalidateFixture(),
		{View: "v", Epoch: 1, All: true},
	} {
		b, err := EncodeInvalidate(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInvalidate(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.View != req.View || got.Epoch != req.Epoch || got.All != req.All || len(got.Keys) != len(req.Keys) {
			t.Fatalf("invalidate round trip changed request:\n got  %+v\n want %+v", got, req)
		}
		for i := range got.Keys {
			if got.Keys[i] != req.Keys[i] {
				t.Fatalf("key %d changed: %q vs %q", i, got.Keys[i], req.Keys[i])
			}
		}
		for i := 0; i < len(b); i++ {
			if _, err := DecodeInvalidate(b[:i]); err == nil {
				t.Fatalf("invalidate truncated to %d/%d bytes decoded cleanly", i, len(b))
			}
		}
	}
}

// FuzzDecodeUpdate covers both write-plane decoders.
func FuzzDecodeUpdate(f *testing.F) {
	if b, err := EncodeUpdate(updateFixture()); err == nil {
		f.Add(b)
	}
	if b, err := EncodeUpdate(UpdateRequest{}); err == nil {
		f.Add(b)
	}
	if b, err := EncodeInvalidate(invalidateFixture()); err == nil {
		f.Add(b)
	}
	if b, err := EncodeInvalidate(InvalidateRequest{View: "v", All: true}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		canonical(t, "update", data, DecodeUpdate, EncodeUpdate)
		canonical(t, "invalidate", data, DecodeInvalidate, EncodeInvalidate)
	})
}
