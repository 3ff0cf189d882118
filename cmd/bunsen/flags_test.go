package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestDriverFlagSurface holds the command line to the name=default list
// recorded from the commit before the shared s3d.RunOptions binder replaced
// the per-driver flag blocks (flag.VisitAll order: sorted by name), minus
// the two flags of the dynamic load balancer, deleted with it, and with the
// per-layer store path and cadence flag pairs folded into one cadence each
// (-analysis, -cost, -critpath: steps, 0 off; the records land in the
// trace): no other flag lost, none gained, no other default moved, and -lb
// is an unknown flag again.
func TestDriverFlagSurface(t *testing.T) {
	want := []string{
		"analysis=0", "cost=0", "critpath=0", "flightrec=", "gradc=false", "health=false", "monitor=", "nx=80", "ny=60", "out=out_bunsen", "profile=", "steps=250", "surface=false", "table1=false", "trace=", "workers=0",
	}
	fs := flag.NewFlagSet("bunsen", flag.ContinueOnError)
	bindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-lb"}); err == nil {
		t.Fatal("-lb still parses: the load balancer's flag is supposed to be gone")
	}
}
