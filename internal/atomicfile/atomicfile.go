// Package atomicfile writes files that are never observed half-written:
// content goes to a temporary file in the destination directory, is
// fsynced, and is renamed over the target in one atomic step. A reader
// (or a process that crashes mid-write) therefore sees either the old
// file or the complete new one — never a truncated hybrid. The trace
// store (lttrace -out) and the persistent result cache both
// depend on this: a cache open trusts what it finds on disk, so a
// torn write must be impossible rather than merely unlikely.
//
// Every step goes through a faultfs.FS seam (WriteFileFS), so the
// fault-injection harness can script ENOSPC, torn writes, fsync and
// rename failures against the exact code path production runs; the
// plain WriteFile entry points bind the real filesystem.
package atomicfile

import (
	"io"
	"path/filepath"

	"repro/internal/faultfs"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The data is staged in a temporary file in path's directory (same
// filesystem, so the final rename is atomic), fsynced before the rename
// (so a crash after WriteFile returns cannot surface an empty or partial
// file), and the directory entry is fsynced after it (so the rename
// itself is durable). On any error the temporary file is removed and the
// previous content of path, if any, is left untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	return WriteFileFS(faultfs.OS, path, write)
}

// WriteFileFS is WriteFile over an injected filesystem: the seam the
// fault-injection harness drives. fsys must not be nil.
func WriteFileFS(fsys faultfs.FS, path string, write func(io.Writer) error) (err error) {
	dir, base := splitDir(path)
	tmp, err := fsys.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Directory fsync makes the rename itself durable. The real
	// filesystem ignores fsync-unsupported errors inside SyncDir (only a
	// failed open surfaces); an injected sync fault does surface, so the
	// harness can script it.
	return fsys.SyncDir(dir)
}

// WriteFileBytesFS is WriteFileFS for in-memory content.
func WriteFileBytesFS(fsys faultfs.FS, path string, data []byte) error {
	return WriteFileFS(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// splitDir splits path into its directory (default ".") and base name.
func splitDir(path string) (dir, base string) {
	d, b := filepath.Split(path)
	if d == "" {
		d = "."
	}
	return d, b
}
