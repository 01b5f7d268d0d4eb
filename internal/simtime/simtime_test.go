package simtime

import (
	"testing"
	"time"
)

func TestWallAtEpoch(t *testing.T) {
	w := Wall(0, 0)
	if !w.Equal(Epoch) {
		t.Fatalf("Wall(0,0) = %v", w)
	}
}

func TestWallAppliesOffset(t *testing.T) {
	w := Wall(time.Second, 250*time.Microsecond)
	want := Epoch.Add(time.Second + 250*time.Microsecond)
	if !w.Equal(want) {
		t.Fatalf("Wall = %v, want %v", w, want)
	}
}

func TestMicrosRoundTrip(t *testing.T) {
	w := Epoch.Add(12345678 * time.Microsecond)
	if got := time.UnixMicro(Micros(w)).UTC(); !got.Equal(w) {
		t.Fatalf("round trip %v -> %v", w, got)
	}
}

func TestEpochIsUTC(t *testing.T) {
	if Epoch.Location() != time.UTC {
		t.Fatal("epoch not UTC")
	}
}
