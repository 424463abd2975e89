// Package rms is the epochguard golden fixture: a condensed
// resource-manager shape seeding every diagnostic class (plain missed
// bump, rollback-after-bump, dirty helper escaping through an
// exported caller, one branch arm missing its bump) next to the fixed
// variants that must stay silent (bump after write, bumpQueue
// subsuming bump, helper cleaned by its callers, deferred bump, fresh
// unpublished locals, a reasoned suppression), and a guarded field of a
// type from another package, changed through its pointer-receiver
// methods.
package rms

import (
	"errors"

	"jobq"
)

// Server mirrors the daemon: epoch-guarded queue/active state.
type Server struct {
	epoch  uint64
	qepoch uint64

	queued []int        //schedlint:epoch-guarded by bumpQueue
	active map[int]bool //schedlint:epoch-guarded by bump
	held   jobq.Queue   //schedlint:epoch-guarded by bumpQueue
}

func (s *Server) bump() { s.epoch++ }

// bumpQueue advances both epochs: queue-membership changes invalidate
// state-keyed caches too.
//
//schedlint:epoch-bump subsumes bump
func (s *Server) bumpQueue() { s.epoch++; s.qepoch++ }

// --- seeded violations ---

// Drop forgets its queue bump entirely.
func (s *Server) Drop() {
	s.queued = s.queued[:0] // want `write to epoch-guarded field queued may reach return`
}

// Start bumps mid-way, then the rollback path mutates again and
// returns without a second bump — the PR 3 dispatch-failure shape.
func (s *Server) Start(id int) error {
	s.active[id] = true
	s.bump()
	if id < 0 {
		delete(s.active, id) // want `write to epoch-guarded field active may reach return`
		return errors.New("rollback")
	}
	return nil
}

// dropUnbumped leaves the write pending; Evict exports the dirt.
func (s *Server) dropUnbumped(id int) {
	delete(s.active, id) // want `write to epoch-guarded field active may reach return`
}

// Evict never bumps after the dirty helper.
func (s *Server) Evict(id int) {
	s.dropUnbumped(id)
}

// Toggle bumps on one arm only.
func (s *Server) Toggle(id int, on bool) {
	if on {
		s.active[id] = true
		s.bump()
	} else {
		delete(s.active, id) // want `write to epoch-guarded field active may reach return`
	}
}

// Hold changes the guarded queue through a method and forgets to bump.
func (s *Server) Hold(id int) {
	s.held.Push(id) // want `write to epoch-guarded field held may reach return`
}

// --- fixed variants: silent ---

// HoldBumped bumps after the method call.
func (s *Server) HoldBumped(id int) {
	s.held.Push(id)
	s.bumpQueue()
}

// Held only reads the guarded queue.
func (s *Server) Held() int { return s.held.Len() }

// Submit bumps after the write.
func (s *Server) Submit(id int) {
	s.queued = append(s.queued, id)
	s.bumpQueue()
}

// Promote relies on bumpQueue subsuming bump for the active write.
func (s *Server) Promote(id int) {
	s.active[id] = true
	s.queued = append(s.queued, id)
	s.bumpQueue()
}

// CleanEvict discharges the helper's pending write itself.
func (s *Server) CleanEvict(id int) {
	s.dropUnbumped(id)
	s.bump()
}

// Deferred bumps on the way out, whatever path returns.
func (s *Server) Deferred(id int) error {
	defer s.bump()
	s.active[id] = true
	if id < 0 {
		return errors.New("no such job")
	}
	return nil
}

// NewServer initializes a fresh, unpublished Server: no observers, no
// obligation.
func NewServer() *Server {
	s := &Server{active: map[int]bool{}}
	s.queued = append(s.queued, 0)
	return s
}

// Rebuild documents why the un-bumped write is sound.
func (s *Server) Rebuild() {
	s.queued = nil //lint:epochguard callers rebuild the queue under a held lock and bump once at the end
}

// Broken declares a guard that does not resolve: unsuppressable.
type Broken struct {
	items []int //schedlint:epoch-guarded by nosuchbump // want `no such method on Broken`
}
