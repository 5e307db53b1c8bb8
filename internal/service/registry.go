package service

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// ErrRegistryFull is returned by Register when the registry holds its
// maximum number of distinct matrices. Clients must unregister something
// (DELETE /api/v1/matrices/<ref>) before registering more — the daemon
// never grows without bound on untrusted input.
var ErrRegistryFull = errors.New("service: matrix registry full")

// RegisteredMatrix is one registry entry: the immutable operator plus its
// descriptor. The CSR is shared by every job solving on it and must never
// be mutated.
type RegisteredMatrix struct {
	Info MatrixInfo
	A    *sparse.CSR
}

// label names the matrix in watcher labels and run reports: its alias, or
// the short fingerprint of an unnamed upload.
func (rm *RegisteredMatrix) label() string {
	if rm.Info.Name != "" {
		return rm.Info.Name
	}
	return shortFP(rm.Info.Fingerprint)
}

// MatrixRegistry is the content-addressed matrix store. Registration
// deduplicates by fingerprint: uploading the same bytes twice yields the
// same handle and keeps one copy. All methods are safe for concurrent use.
type MatrixRegistry struct {
	mu    sync.RWMutex
	cap   int
	byFP  map[string]*RegisteredMatrix
	names map[string]string // alias -> fingerprint
	order []string          // insertion order, for a stable listing
}

// NewMatrixRegistry returns an empty registry holding at most capacity
// distinct matrices (capacity < 1 is treated as 1).
func NewMatrixRegistry(capacity int) *MatrixRegistry {
	if capacity < 1 {
		capacity = 1
	}
	return &MatrixRegistry{
		cap:   capacity,
		byFP:  map[string]*RegisteredMatrix{},
		names: map[string]string{},
	}
}

// Register stores a (validated as square-symmetric by the caller) matrix
// under its content fingerprint, optionally aliased by name. Registering
// already-present content is a cheap no-op returning Created=false; a name
// that already aliases different content is an error.
func (r *MatrixRegistry) Register(a *sparse.CSR, name string) (MatrixInfo, error) {
	fp := a.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byFP[fp]; ok {
		if name != "" {
			if owner, taken := r.names[name]; taken && owner != fp {
				return MatrixInfo{}, fmt.Errorf("service: name %q already registered to another matrix", name)
			}
			r.names[name] = fp
			if existing.Info.Name == "" {
				existing.Info.Name = name
			}
		}
		info := existing.Info
		info.Created = false
		return info, nil
	}
	if name != "" {
		if _, taken := r.names[name]; taken {
			return MatrixInfo{}, fmt.Errorf("service: name %q already registered to another matrix", name)
		}
	}
	if len(r.byFP) >= r.cap {
		return MatrixInfo{}, ErrRegistryFull
	}
	rm := &RegisteredMatrix{
		Info: MatrixInfo{Fingerprint: fp, Name: name, Rows: a.Rows, NNZ: a.NNZ()},
		A:    a,
	}
	r.byFP[fp] = rm
	r.order = append(r.order, fp)
	if name != "" {
		r.names[name] = fp
	}
	info := rm.Info
	info.Created = true
	return info, nil
}

// Get resolves a matrix by fingerprint or name.
func (r *MatrixRegistry) Get(ref string) (*RegisteredMatrix, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if rm, ok := r.byFP[ref]; ok {
		return rm, true
	}
	if fp, ok := r.names[ref]; ok {
		return r.byFP[fp], true
	}
	return nil, false
}

// Remove unregisters a matrix by fingerprint or name, returning its
// fingerprint and whether anything was removed. Cached preconditioners are
// the cache's business: the server pairs Remove with PrecondCache.
// EvictMatrix.
func (r *MatrixRegistry) Remove(ref string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fp := ref
	if mapped, ok := r.names[ref]; ok {
		fp = mapped
	}
	rm, ok := r.byFP[fp]
	if !ok {
		return "", false
	}
	delete(r.byFP, fp)
	if rm.Info.Name != "" {
		delete(r.names, rm.Info.Name)
	}
	for alias, owner := range r.names {
		if owner == fp {
			delete(r.names, alias)
		}
	}
	for i, f := range r.order {
		if f == fp {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return fp, true
}

// List returns the registered matrices in registration order.
func (r *MatrixRegistry) List() []MatrixInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(r.order))
	for _, fp := range r.order {
		out = append(out, r.byFP[fp].Info)
	}
	return out
}

// Len returns the number of registered matrices.
func (r *MatrixRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byFP)
}
