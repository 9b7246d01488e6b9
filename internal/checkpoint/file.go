package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"pipelayer/internal/nn"
)

// SaveFile atomically writes a checkpoint to path (see writeAtomic). A
// crash at any point leaves either the old checkpoint or the new one — never
// a torn file — which is what makes auto-resume after a kill safe.
func SaveFile(path string, net *nn.Network, epoch int) error {
	return writeAtomic(path, func(w io.Writer) error { return SaveState(w, net, epoch) })
}

// writeAtomic publishes a file at path: write fills a temp file in the same
// directory, which is flushed to stable storage and only then renamed over
// path. A crash leaves either the old file or the new one, and a failure
// leaves no temp file behind.
func writeAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing temp file: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing temp file: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadFile reads and validates the checkpoint at path into net, returning
// the epoch it was saved at.
func LoadFile(path string, net *nn.Network) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return LoadState(f, net)
}

// Resume restores training state from path if a checkpoint exists there:
// ok reports whether one was loaded. A missing file is the normal cold-start
// case (0, false, nil); a present-but-corrupt file is a hard error so a
// damaged checkpoint is never silently ignored and overwritten.
func Resume(path string, net *nn.Network) (epoch int, ok bool, err error) {
	epoch, err = LoadFile(path, net)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return epoch, true, nil
}
