package main

import (
	"testing"

	"noftl/internal/obs"
)

// TestFilterKeepsResets: `noftl-trace filter -class reset` keeps exactly the
// reset events.
func TestFilterKeepsResets(t *testing.T) {
	events := []obs.Event{
		{Seq: 0, Class: obs.ClassHostWrite},
		{Seq: 1, Class: obs.ClassReset, Die: -1},
		{Seq: 2, Class: obs.ClassWALSync, Die: -1},
		{Seq: 3, Class: obs.ClassReset, Die: -1},
	}
	got, err := filter(events, "reset", -1, -1)
	if err != nil || len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 3 {
		t.Fatalf("filter -class reset = %+v, %v; want the events of Seq 1 and 3", got, err)
	}
}
