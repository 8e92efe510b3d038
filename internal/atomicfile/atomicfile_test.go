package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFileBytesFS(faultfs.OS, path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q, want %q", got, "hello")
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	for _, content := range []string{"first", "second, longer content"} {
		if err := WriteFileBytesFS(faultfs.OS, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(path)
		if string(got) != content {
			t.Fatalf("read %q, want %q", got, content)
		}
	}
}

// TestWriteFileFailureLeavesOldContent pins the crash-safety contract: a
// write callback that fails mid-stream must leave the previous file
// intact and no temporary files behind.
func TestWriteFileFailureLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileBytesFS(faultfs.OS, path, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return fmt.Errorf("simulated crash")
	})
	if err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("want simulated crash error, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "intact" {
		t.Fatalf("old content clobbered: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != "out.bin" {
			t.Fatalf("stray file left behind: %s", e.Name())
		}
	}
}

func TestWriteFileNoTempLeftOnSuccess(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileBytesFS(faultfs.OS, filepath.Join(dir, "a"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "a" {
		t.Fatalf("directory not clean after write: %v", ents)
	}
}
