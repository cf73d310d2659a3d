package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, want := range []string{"first", "second, longer than the first"} {
		if err := Write(path, 0o640, writeBytes([]byte(want))); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("contents %q, want %q", got, want)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o640 {
		t.Errorf("mode %v, want 0640", st.Mode().Perm())
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only state.json", names)
	}
}

// TestFailedWriteKeepsPrevious: a write that fails part-way leaves the
// previous file byte-identical and no temporary file behind.
func TestFailedWriteKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	old := []byte(`{"generation": 1}`)
	if err := Write(path, 0o644, writeBytes(old)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"generation": 2, "tor`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write error %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("previous file changed to %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "state.json" {
		t.Errorf("directory holds %v, want only state.json", names)
	}
}

// TestWriteMissingDir fails without creating anything.
func TestWriteMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "state.json")
	if err := Write(path, 0o644, writeBytes([]byte("x"))); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
