package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ksettop/internal/durable"
	"ksettop/internal/faultinject"
)

func armFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := faultinject.ParseRules(spec)
	if err != nil {
		t.Fatalf("bad fault spec %q: %v", spec, err)
	}
	faultinject.Enable(seed, rules...)
	t.Cleanup(faultinject.Disable)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	secs := []Section{
		{Name: "solver.frontier#1", Payload: []byte("alpha")},
		{Name: "homology.reduction#2", Payload: []byte{0, 1, 2, 3, 255}},
		{Name: "empty#3", Payload: nil},
	}
	if err := Save(path, "toolX|star:n=4", secs); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, "toolX|star:n=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(got), len(secs))
	}
	for i, s := range secs {
		if got[i].Name != s.Name || !bytes.Equal(got[i].Payload, s.Payload) {
			t.Fatalf("section %d: got %q/%x, want %q/%x", i, got[i].Name, got[i].Payload, s.Name, s.Payload)
		}
	}
}

func TestLoadJobMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "toolX|star:n=4", []Section{{Name: "a#1", Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path, "toolY|star:n=4")
	if !errors.Is(err, ErrJobMismatch) {
		t.Fatalf("want ErrJobMismatch, got %v", err)
	}
	var jm *JobMismatchError
	if !errors.As(err, &jm) || jm.Got != "toolX|star:n=4" {
		t.Fatalf("mismatch detail: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), "job")
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist, got %v", err)
	}
	if errors.Is(err, durable.ErrCorrupt) {
		t.Fatal("a missing file is a cold start, not corruption")
	}
}

// Every truncation prefix of a valid checkpoint must be rejected as corrupt
// (or as not-a-checkpoint), never half-loaded.
func TestLoadTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	secs := []Section{
		{Name: "a#1", Payload: []byte("payload-one")},
		{Name: "b#2", Payload: []byte("payload-two")},
	}
	if err := Save(path, "job", secs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, "job"); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: want durable.ErrCorrupt, got %v", n, len(data), err)
		}
	}
}

// Flipping any single bit of the file must never load silently-wrong
// sections: the loader reports corruption or a job mismatch (bit landed in
// the job key — caught by the key comparison before any payload is used).
func TestLoadBitFlips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: []byte("some payload bytes")}}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), orig...)
			mut[i] ^= 1 << bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path, "job")
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d loaded successfully", i, bit)
			}
			if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, ErrJobMismatch) {
				t.Fatalf("bit flip at byte %d bit %d: unexpected error class: %v", i, bit, err)
			}
		}
	}
}

// An atomic save means a failed write leaves the previous checkpoint intact
// and no temp litter behind.
func TestSaveWriteFaultKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 1, "error:checkpoint.write@1")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: []byte("v2")}}); err == nil {
		t.Fatal("want injected write failure")
	}
	secs, err := Load(path, "job")
	if err != nil || string(secs[0].Payload) != "v1" {
		t.Fatalf("previous checkpoint lost after failed save: %v %v", secs, err)
	}
	assertNoTempLitter(t, dir)
}

func TestSaveFsyncFaultKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 1, "error:checkpoint.fsync@1")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: []byte("v2")}}); err == nil {
		t.Fatal("want injected fsync failure")
	}
	secs, err := Load(path, "job")
	if err != nil || string(secs[0].Payload) != "v1" {
		t.Fatalf("previous checkpoint lost after failed fsync: %v %v", secs, err)
	}
	assertNoTempLitter(t, dir)
}

// A torn write (bytes corrupted on their way to disk) must be caught by the
// section CRCs at the next load.
func TestSaveTornWriteCaughtAtLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	armFaults(t, 7, "corrupt:checkpoint.write@1:8")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: bytes.Repeat([]byte("x"), 256)}}); err != nil {
		t.Fatalf("torn write still completes: %v", err)
	}
	faultinject.Disable()
	if _, err := Load(path, "job"); err == nil {
		t.Fatal("torn write loaded cleanly — CRC should have caught it")
	}
}

// On-disk rot injected at load must surface as an error, not as sections.
func TestLoadRotFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "job", []Section{{Name: "a#1", Payload: bytes.Repeat([]byte("y"), 256)}}); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 3, "corrupt:checkpoint.load@1:8")
	if _, err := Load(path, "job"); err == nil {
		t.Fatal("rotted load should fail")
	}
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file litter: %s", e.Name())
		}
	}
}

func TestNilRunnerIsNoOp(t *testing.T) {
	var r *Runner
	if r.LoadForResume() {
		t.Fatal("nil runner resumed")
	}
	r.Register("k", 1, func() ([]byte, error) { return nil, nil })()
	if _, ok := r.Resume("k", 1); ok {
		t.Fatal("nil runner returned a section")
	}
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	if err := r.Remove(); err != nil {
		t.Fatal(err)
	}
	if r.Path() != "" {
		t.Fatal("nil runner path")
	}
	if FromContext(WithRunner(nil, nil)) != nil {
		t.Fatal("nil-runner context must stay empty")
	}
}

func TestRunnerSaveResumeCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r1 := NewRunner(path, "job", 0)
	state := []byte("frontier-state")
	unreg := r1.Register("solver.frontier", 0xABCD, func() ([]byte, error) {
		return state, nil
	})
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}
	unreg()

	r2 := NewRunner(path, "job", 0)
	if !r2.LoadForResume() {
		t.Fatal("valid checkpoint did not load")
	}
	if _, ok := r2.Resume("solver.frontier", 0x1234); ok {
		t.Fatal("fingerprint mismatch must not resume")
	}
	payload, ok := r2.Resume("solver.frontier", 0xABCD)
	if !ok || !bytes.Equal(payload, state) {
		t.Fatalf("resume: got %q ok=%v", payload, ok)
	}
	if _, ok := r2.Resume("solver.frontier", 0xABCD); ok {
		t.Fatal("a consumed section must not resume twice")
	}
}

// A section loaded but not consumed (the resumed run has not re-reached that
// phase yet) must survive the next SaveNow, so a second crash before the
// phase re-runs does not lose its progress.
func TestRunnerCarriesUnconsumedSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r1 := NewRunner(path, "job", 0)
	u1 := r1.Register("phaseA", 1, func() ([]byte, error) { return []byte("A"), nil })
	u2 := r1.Register("phaseB", 2, func() ([]byte, error) { return []byte("B"), nil })
	if err := r1.SaveNow(); err != nil {
		t.Fatal(err)
	}
	u1()
	u2()

	r2 := NewRunner(path, "job", 0)
	r2.LoadForResume()
	if payload, ok := r2.Resume("phaseA", 1); !ok || string(payload) != "A" {
		t.Fatalf("phaseA resume: %q %v", payload, ok)
	}
	// phaseB not consumed; save only a new phaseA state.
	r2.Register("phaseA", 1, func() ([]byte, error) { return []byte("A2"), nil })
	if err := r2.SaveNow(); err != nil {
		t.Fatal(err)
	}

	r3 := NewRunner(path, "job", 0)
	r3.LoadForResume()
	if payload, ok := r3.Resume("phaseB", 2); !ok || string(payload) != "B" {
		t.Fatalf("unconsumed phaseB lost across a second save: %q %v", payload, ok)
	}
	if payload, ok := r3.Resume("phaseA", 1); !ok || string(payload) != "A2" {
		t.Fatalf("phaseA second-generation state: %q %v", payload, ok)
	}
}

// Unregister retains the engine's final bytes, so a SaveNow after the engine
// exited (the interrupt path) still persists its last progress.
func TestRunnerRetainsUnregisteredState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r := NewRunner(path, "job", 0)
	state := []byte("v1")
	unreg := r.Register("solver.frontier", 9, func() ([]byte, error) { return state, nil })
	state = []byte("final")
	unreg()
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(path, "job", 0)
	r2.LoadForResume()
	if payload, ok := r2.Resume("solver.frontier", 9); !ok || string(payload) != "final" {
		t.Fatalf("retained state: %q %v", payload, ok)
	}
}

// A capture error aborts the save and leaves the previous file intact.
func TestRunnerCaptureErrorKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r := NewRunner(path, "job", 0)
	u := r.Register("k", 1, func() ([]byte, error) { return []byte("good"), nil })
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	u()
	r2 := NewRunner(path, "job", 0)
	r2.LoadForResume()
	r2.Register("k", 1, func() ([]byte, error) { return nil, errors.New("capture boom") })
	if err := r2.SaveNow(); err == nil {
		t.Fatal("capture error must fail the save")
	}
	r3 := NewRunner(path, "job", 0)
	r3.LoadForResume()
	if payload, ok := r3.Resume("k", 1); !ok || string(payload) != "good" {
		t.Fatalf("previous file damaged by failed save: %q %v", payload, ok)
	}
}

// Corrupt and foreign files cold-start a runner instead of failing it.
func TestRunnerColdStartOnBadFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]func(path string){
		"corrupt": func(path string) {
			os.WriteFile(path, []byte("ksetckpt\x01garbage-bytes"), 0o644)
		},
		"foreign-job": func(path string) {
			Save(path, "other-job", []Section{{Name: "k#1", Payload: []byte("x")}})
		},
		"not-a-checkpoint": func(path string) {
			os.WriteFile(path, []byte("#!/bin/sh\necho no\n"), 0o644)
		},
		"empty": func(path string) {
			os.WriteFile(path, nil, 0o644)
		},
	}
	for name, write := range cases {
		path := filepath.Join(dir, name+".ckpt")
		write(path)
		r := NewRunner(path, "job", 0)
		if r.LoadForResume() {
			t.Fatalf("%s: bad file reported as resumed", name)
		}
		if _, ok := r.Resume("k", 1); ok {
			t.Fatalf("%s: bad file staged sections", name)
		}
		// The runner must still be able to write fresh checkpoints.
		r.Register("k", 1, func() ([]byte, error) { return []byte("fresh"), nil })
		if err := r.SaveNow(); err != nil {
			t.Fatalf("%s: save after cold start: %v", name, err)
		}
	}
}

func TestRunnerRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r := NewRunner(path, "job", 0)
	r.Register("k", 1, func() ([]byte, error) { return []byte("x"), nil })
	if err := r.SaveNow(); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("checkpoint file survives Remove")
	}
	if err := r.Remove(); err != nil {
		t.Fatalf("double remove must be clean: %v", err)
	}
}
