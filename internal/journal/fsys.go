package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// fileSystem is the journal's file seam: every file operation Open,
// commit, Compact and Close perform goes through it. Production backs it
// with package os (osFS); the package's tests back it with memory and
// log each operation, so a crash can be cut at any write boundary.
type fileSystem interface {
	readFile(name string) ([]byte, error)
	// create opens name for writing, empty, creating it if absent.
	create(name string) (file, error)
	// openAppend opens the existing file name for appending.
	openAppend(name string) (file, error)
	truncate(name string, size int64) error
	rename(oldname, newname string) error
	remove(name string) error
	// syncDir makes dir's entries, a rename among them, durable.
	syncDir(dir string) error
}

// file is an open journal file: written in order, synced, closed.
type file interface {
	io.WriteCloser
	Sync() error
}

// tmpSuffix names the temporary file replace writes beside a journal.
// Open removes one a crash left behind.
const tmpSuffix = ".tmp"

// replace makes data the whole content of path atomically: it writes
// and syncs a temporary file beside path, renames it over path and
// syncs the directory, so a crash at any point leaves either the old
// file or the new one at path. Once the rename is done it returns the
// new file, open to append to, even when the directory sync then fails.
func replace(fsys fileSystem, path string, data []byte) (file, error) {
	tmp := path + tmpSuffix
	f, err := fsys.create(tmp)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		if err = f.Sync(); err == nil {
			err = fsys.rename(tmp, path)
		}
	}
	if err != nil {
		_ = f.Close()
		_ = fsys.remove(tmp)
		return nil, err
	}
	return f, fsys.syncDir(filepath.Dir(path))
}

// osFS is the file seam over package os.
type osFS struct{}

func (osFS) readFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) create(name string) (file, error) {
	return osFile(os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644))
}

func (osFS) openAppend(name string) (file, error) {
	return osFile(os.OpenFile(name, os.O_APPEND|os.O_WRONLY, 0))
}

func (osFS) truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) remove(name string) error               { return os.Remove(name) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// osFile keeps a failed open's nil *os.File out of the file interface.
func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
