package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSeriesBinaryRoundTrip pins bit-exactness of the Series wire
// encoding: the decoded series must be deep-equal, render byte-identical
// CSV, and still merge with the original's peers.
func TestSeriesBinaryRoundTrip(t *testing.T) {
	s := NewSeries(50, 325) // partial trailing window
	s.ObserveLocal(10, true)
	s.ObserveLocal(10, false)
	s.ObserveGlobal(60, true, 1.0/3)
	s.ObserveGlobal(120, false, -0.1)
	s.ObserveGlobalAbort(300)
	s.ObserveQueueLen(5, 3)
	s.ObserveQueueLen(324.9, 7)

	b, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Series)
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, s)
	}
	var w1, w2 bytes.Buffer
	if err := s.WriteCSV(&w1); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("decoded series renders different CSV")
	}
	if err := got.Merge(s); err != nil {
		t.Fatalf("decoded series refuses to merge with original geometry: %v", err)
	}

	if err := got.UnmarshalBinary(b[:len(b)-1]); err == nil {
		t.Fatal("truncated series wire accepted")
	}
}
