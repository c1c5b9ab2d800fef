package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ksettop/internal/cli"
)

// TestReportMatchesGolden pins the whole report byte for byte on two small
// models. The golden files hold the tool's stdout for these arguments.
func TestReportMatchesGolden(t *testing.T) {
	for _, c := range []struct{ model, golden string }{
		{"star:n=3", "star_n=3_values_2.golden"},
		{"simple-cycle:n=4", "simple-cycle_n=4_values_2.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-model", c.model, "-values", "2"}, &out); err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: report differs from %s:\n%s", c.model, c.golden, out.String())
		}
	}
}

func TestBogusModelExitsOne(t *testing.T) {
	err := run(context.Background(), []string{"-model", "bogus"}, io.Discard)
	if code := cli.ExitCode(err); code != 1 {
		t.Fatalf("run = %v (exit %d), want a model error exiting 1", err, code)
	}
}
