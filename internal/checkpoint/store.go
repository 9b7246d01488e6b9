package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pipelayer/internal/nn"
)

// Store manages a directory of versioned checkpoints for online training:
// each weight snapshot is written (atomically, via SaveFile) to its own
// ckpt-v%08d.plkp file, and a manifest.json records the lifecycle state of
// every version (candidate → promoted / rolled-back).
//
// The manifest is advisory: crash-safe resume never trusts it. Discovery
// (LatestValid) rescans the directory and validates each file's CRC trailer,
// newest version first, so a torn or bit-rotted checkpoint — or a corrupt
// manifest — is skipped rather than resumed from.
//
// All methods are safe for concurrent use.
type Store struct {
	dir string

	mu  sync.Mutex
	man Manifest
}

// VersionState is the lifecycle state of one checkpoint version.
type VersionState string

const (
	// StateCandidate marks a snapshot written but not yet evaluated.
	StateCandidate VersionState = "candidate"
	// StatePromoted marks a snapshot that passed eval gating and was
	// swapped into serving.
	StatePromoted VersionState = "promoted"
	// StateRolledBack marks a snapshot rejected by eval gating (or whose
	// swap failed); the trainer was restored to the prior promoted version.
	StateRolledBack VersionState = "rolled-back"
)

// ManifestSchemaVersion gates manifest format changes.
const ManifestSchemaVersion = 1

const manifestName = "manifest.json"

// ManifestEntry records one version's file and lifecycle state.
type ManifestEntry struct {
	Version uint64       `json:"version"`
	Epoch   int          `json:"epoch"`
	File    string       `json:"file"`
	State   VersionState `json:"state"`
}

// Manifest is the on-disk version ledger, entries ascending by version.
type Manifest struct {
	SchemaVersion int             `json:"schema_version"`
	Entries       []ManifestEntry `json:"entries"`
}

// ParseManifest decodes a manifest strictly: unknown fields, trailing data,
// a wrong schema version, or unordered/duplicate entries are errors. A
// truncated manifest must error here, never panic — the store treats that as
// "no manifest" and rebuilds from the directory scan.
func ParseManifest(raw []byte) (Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: parsing manifest: %w", err)
	}
	if dec.More() {
		return Manifest{}, fmt.Errorf("checkpoint: manifest has trailing data")
	}
	if m.SchemaVersion != ManifestSchemaVersion {
		return Manifest{}, fmt.Errorf("checkpoint: manifest schema v%d, this tool speaks v%d", m.SchemaVersion, ManifestSchemaVersion)
	}
	var last uint64
	for i, e := range m.Entries {
		if e.Version == 0 {
			return Manifest{}, fmt.Errorf("checkpoint: manifest entry %d has version 0", i)
		}
		if i > 0 && e.Version <= last {
			return Manifest{}, fmt.Errorf("checkpoint: manifest entries not strictly ascending at version %d", e.Version)
		}
		switch e.State {
		case StateCandidate, StatePromoted, StateRolledBack:
		default:
			return Manifest{}, fmt.Errorf("checkpoint: manifest version %d has unknown state %q", e.Version, e.State)
		}
		last = e.Version
	}
	return m, nil
}

// OpenStore opens (creating if needed) a versioned checkpoint directory.
// A missing or corrupt manifest is not fatal: lifecycle history is rebuilt
// from the checkpoint files themselves (as candidates), because resume
// correctness rests on per-file CRC validation, not on the manifest.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: store directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating store directory: %w", err)
	}
	s := &Store{dir: dir}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if man, perr := ParseManifest(raw); perr == nil {
			s.man = man
			return s, nil
		}
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	// No usable manifest: rebuild from the version files on disk.
	versions, err := s.scanVersions()
	if err != nil {
		return nil, err
	}
	s.man = Manifest{SchemaVersion: ManifestSchemaVersion}
	for _, v := range versions {
		s.man.Entries = append(s.man.Entries, ManifestEntry{
			Version: v, File: versionFileName(v), State: StateCandidate,
		})
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the checkpoint file path for a version.
func (s *Store) Path(version uint64) string {
	return filepath.Join(s.dir, versionFileName(version))
}

func versionFileName(version uint64) string {
	return fmt.Sprintf("ckpt-v%08d.plkp", version)
}

// parseVersionFile extracts the version from a store file name.
func parseVersionFile(name string) (uint64, bool) {
	var v uint64
	n, err := fmt.Sscanf(name, "ckpt-v%d.plkp", &v)
	if err != nil || n != 1 || v == 0 || name != versionFileName(v) {
		return 0, false
	}
	return v, true
}

// scanVersions lists the versions present on disk, ascending. Presence only
// — files are not validated here.
func (s *Store) scanVersions() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scanning store: %w", err)
	}
	var versions []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if v, ok := parseVersionFile(e.Name()); ok {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	return versions, nil
}

// Save writes net as the given version (atomic temp+fsync+rename, like
// SaveFile) and upserts its manifest entry with the given state. Saving an
// existing version replaces its file and entry — that is how a resume
// overwrites a torn file left by a crash mid-save.
func (s *Store) Save(net *nn.Network, epoch int, version uint64, state VersionState) error {
	if version == 0 {
		return fmt.Errorf("checkpoint: version must be >= 1")
	}
	if err := SaveFile(s.Path(version), net, epoch); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.upsertLocked(ManifestEntry{Version: version, Epoch: epoch, File: versionFileName(version), State: state})
	return s.writeManifestLocked()
}

// SetState updates a version's lifecycle state in the manifest.
func (s *Store) SetState(version uint64, state VersionState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.man.Entries {
		if s.man.Entries[i].Version == version {
			s.man.Entries[i].State = state
			return s.writeManifestLocked()
		}
	}
	return fmt.Errorf("checkpoint: version %d not in manifest", version)
}

// Load restores the given version into net, returning its stored epoch.
func (s *Store) Load(version uint64, net *nn.Network) (int, error) {
	return LoadFile(s.Path(version), net)
}

// Manifest returns a copy of the current manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.man
	cp.Entries = append([]ManifestEntry(nil), s.man.Entries...)
	return cp
}

// LatestValid finds the newest checkpoint in the store that loads cleanly
// and restores it into net: versions are tried newest-first and any file
// that fails to load — truncated, bit-rotted (ErrChecksum), or topology
// mismatch — is skipped, as is any version the manifest marks rolled_back
// (those weights failed the accuracy gate; resuming onto them would undo
// the rollback). ok is false when no valid checkpoint exists (the
// cold-start case). The error return is reserved for directory-level
// failures; per-file corruption is never fatal.
func (s *Store) LatestValid(net *nn.Network) (version uint64, epoch int, ok bool, err error) {
	versions, err := s.scanVersions()
	if err != nil {
		return 0, 0, false, err
	}
	rolledBack := make(map[uint64]bool)
	s.mu.Lock()
	for _, e := range s.man.Entries {
		if e.State == StateRolledBack {
			rolledBack[e.Version] = true
		}
	}
	s.mu.Unlock()
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		if rolledBack[v] {
			continue
		}
		if e, lerr := LoadFile(s.Path(v), net); lerr == nil {
			return v, e, true, nil
		}
	}
	return 0, 0, false, nil
}

// Prune deletes version files beyond the newest keep, never touching
// protected versions (e.g. the currently promoted one). keep <= 0 keeps
// everything. Manifest entries for deleted files are dropped.
func (s *Store) Prune(keep int, protect ...uint64) error {
	if keep <= 0 {
		return nil
	}
	versions, err := s.scanVersions()
	if err != nil {
		return err
	}
	if len(versions) <= keep {
		return nil
	}
	protected := make(map[uint64]bool, len(protect))
	for _, v := range protect {
		protected[v] = true
	}
	doomed := map[uint64]bool{}
	for _, v := range versions[:len(versions)-keep] {
		if protected[v] {
			continue
		}
		if err := os.Remove(s.Path(v)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: pruning version %d: %w", v, err)
		}
		doomed[v] = true
	}
	if len(doomed) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.man.Entries[:0]
	for _, e := range s.man.Entries {
		if !doomed[e.Version] {
			kept = append(kept, e)
		}
	}
	s.man.Entries = kept
	return s.writeManifestLocked()
}

// upsertLocked inserts or replaces an entry, keeping ascending order.
func (s *Store) upsertLocked(e ManifestEntry) {
	for i := range s.man.Entries {
		if s.man.Entries[i].Version == e.Version {
			s.man.Entries[i] = e
			return
		}
	}
	s.man.Entries = append(s.man.Entries, e)
	sort.Slice(s.man.Entries, func(i, j int) bool {
		return s.man.Entries[i].Version < s.man.Entries[j].Version
	})
}

// writeManifestLocked publishes the manifest atomically (writeAtomic), like
// SaveFile, so a crash leaves either the old or the new manifest.
func (s *Store) writeManifestLocked() error {
	s.man.SchemaVersion = ManifestSchemaVersion
	raw, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	raw = append(raw, '\n')
	return writeAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		if _, err := w.Write(raw); err != nil {
			return fmt.Errorf("checkpoint: writing manifest: %w", err)
		}
		return nil
	})
}
