// Package outfile opens the commands' output files (-metrics, -trace,
// the profiles) so that a refused run leaves what the path already held
// as it was.
package outfile

import "os"

// File is an output file that is emptied only when the run first writes
// to it, or closes it unwritten. manetp2p.Pool.Run streams metrics after
// its last replication, so a run it refuses (a checkpoint written for a
// different scenario, say) writes nothing and is never closed: the file
// keeps its old bytes.
type File struct {
	path string
	f    *os.File
}

// Create checks that path can be written, creating it if it is missing
// but emptying nothing, and returns the File that will write it.
func Create(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	return &File{path: path}, f.Close()
}

// open empties the file and opens it for writing, once.
func (o *File) open() error {
	if o.f != nil {
		return nil
	}
	f, err := os.Create(o.path)
	if err != nil {
		return err
	}
	o.f = f
	return nil
}

// Write writes p, emptying the file first at the first call.
func (o *File) Write(p []byte) (int, error) {
	if err := o.open(); err != nil {
		return 0, err
	}
	return o.f.Write(p)
}

// Close closes the file, emptying it first if nothing was written.
func (o *File) Close() error {
	if err := o.open(); err != nil {
		return err
	}
	return o.f.Close()
}
