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

// TestExecutionsMatchGolden pins the worst-case sweep and a seeded random
// execution byte for byte on two small models. The golden files hold the
// tool's stdout for these arguments.
func TestExecutionsMatchGolden(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-model", "star:n=3", "-mode", "worst", "-rounds", "1"}, "worst_star_n=3_rounds_1.golden"},
		{[]string{"-model", "simple-cycle:n=4", "-mode", "worst", "-rounds", "1"}, "worst_simple-cycle_n=4_rounds_1.golden"},
		{[]string{"-model", "star:n=3", "-mode", "random", "-rounds", "2", "-seed", "7"}, "random_star_n=3_rounds_2_seed_7.golden"},
		{[]string{"-model", "simple-cycle:n=4", "-mode", "random", "-rounds", "2", "-seed", "7"}, "random_simple-cycle_n=4_rounds_2_seed_7.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(context.Background(), c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from %s:\n%s", c.args, c.golden, out.String())
		}
	}
}

func TestBogusModelExitsOne(t *testing.T) {
	for _, mode := range []string{"worst", "random"} {
		err := run(context.Background(), []string{"-model", "bogus", "-mode", mode}, io.Discard)
		if code := cli.ExitCode(err); code != 1 {
			t.Fatalf("-mode %s: run = %v (exit %d), want a model error exiting 1", mode, err, code)
		}
	}
}
