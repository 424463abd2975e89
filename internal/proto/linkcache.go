package proto

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// linkCacheCap bounds how many links a LinkCache keeps; the least
	// recently used idle one makes room. A daemon's peers are the sister
	// moms of the jobs it hosts, a set that turns over slowly, and every
	// kept link costs the peer a parked goroutine.
	linkCacheCap = 64
	// linkIdle is how long a link may sit unused before the cache hangs
	// up: well past the gap between two scheduling bursts, well short of
	// what a stateful middlebox lets an idle flow live.
	linkIdle = 30 * time.Second
)

// ErrLinkCacheClosed is returned by Request after Close.
var ErrLinkCacheClosed = errors.New("proto: link cache closed")

// LinkCache keeps one negotiated connection per peer address for a
// daemon that sends requests to the same few peers again and again: the
// link is dialled by the first request that needs it, reused by the
// next, dropped on any error, hung up after linkIdle without use, and
// closed with the cache. The dialler alone decides how long a link
// lives; the accepting side serves it until it ends.
//
// A request that fails on a link that had been sitting in the cache is
// sent once more on a fresh one — the usual cause is a peer that
// restarted or hung up meanwhile, which never saw it. Nothing else is
// replayed: a request that fails on a link dialled for it fails.
type LinkCache struct {
	mode        Mode
	dialTimeout time.Duration
	idle        time.Duration
	closed      atomic.Bool

	mu     sync.Mutex
	links  map[string]*cachedLink // guarded by mu
	reaper *time.Timer            // guarded by mu: the idle sweep, armed while links is non-empty
}

// cachedLink is one peer's slot. busy and used belong to the cache and
// share its lock; mu serializes the requests to this peer, dial
// included, and is never taken under the cache's lock.
type cachedLink struct {
	mu   sync.Mutex
	conn atomic.Pointer[Conn] // nil until dialled and after an error; Close reads it without mu
	busy int                  // guarded by lc.mu: requests holding or waiting for mu
	used time.Time            // guarded by lc.mu: when the latest request began
}

// NewLinkCache creates an empty cache whose links negotiate their codec
// per mode, each on its own; dialTimeout bounds a dial and its
// handshake (0 = unbounded).
func NewLinkCache(mode Mode, dialTimeout time.Duration) *LinkCache {
	return &LinkCache{mode: mode, dialTimeout: dialTimeout, idle: linkIdle, links: make(map[string]*cachedLink)}
}

// Request sends one message to the peer at addr and returns its reply,
// like Conn.Request on a link the cache provides. Requests to one peer
// take turns; requests to different peers do not wait for each other.
func (lc *LinkCache) Request(addr string, t MsgType, payload any) (*Envelope, error) {
	l, err := lc.acquire(addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	env, err := lc.roundTrip(l, addr, t, payload)
	l.mu.Unlock()
	lc.release(addr, l)
	return env, err
}

// roundTrip runs one request on l's connection, dialling when there is
// none. Caller holds l.mu.
func (lc *LinkCache) roundTrip(l *cachedLink, addr string, t MsgType, payload any) (*Envelope, error) {
	c := l.conn.Load()
	for reused := c != nil; ; reused = false {
		if c == nil {
			// The connection takes the slot before its handshake, so
			// Close can end a handshake, or the auto mode's plain redial,
			// that hangs.
			var err error
			if c, err = dialModeTimeout(addr, lc.mode, lc.dialTimeout, func(c *Conn) error {
				l.conn.Store(c)
				if lc.closed.Load() { // Close ran meanwhile and may have missed c
					return ErrLinkCacheClosed
				}
				return nil
			}); err != nil {
				l.conn.Store(nil)
				return nil, err
			}
		}
		env, err := c.Request(t, payload)
		if err == nil {
			return env, nil
		}
		_ = c.Close()
		l.conn.Store(nil)
		if !reused || lc.closed.Load() {
			return nil, err
		}
		c = nil
	}
}

// acquire returns addr's slot with one more request counted on it,
// making the slot — and room for it — when there is none.
func (lc *LinkCache) acquire(addr string) (*cachedLink, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.closed.Load() {
		return nil, ErrLinkCacheClosed
	}
	l := lc.links[addr]
	if l == nil {
		if len(lc.links) >= linkCacheCap {
			lc.evictLocked()
		}
		l = &cachedLink{}
		lc.links[addr] = l
		if lc.reaper == nil {
			lc.reaper = time.AfterFunc(lc.idle, lc.reap) //lint:wallclock link idleness is measured in real time
		}
	}
	l.busy++
	l.used = time.Now() //lint:wallclock link idleness is measured in real time
	return l, nil
}

// release ends a request's hold on l; a slot left without a connection
// by an error is given up.
func (lc *LinkCache) release(addr string, l *cachedLink) {
	lc.mu.Lock()
	l.busy--
	if l.busy == 0 && l.conn.Load() == nil && lc.links[addr] == l {
		delete(lc.links, addr)
	}
	lc.mu.Unlock()
}

// dropLocked forgets addr's slot and hangs up its link; short of Close,
// only a slot no request holds is dropped. Caller holds lc.mu.
func (lc *LinkCache) dropLocked(addr string, l *cachedLink) {
	delete(lc.links, addr)
	if c := l.conn.Load(); c != nil {
		_ = c.Close()
	}
}

// evictLocked drops the least recently used slot no request holds; with
// every slot in use the cache runs over its cap until one is not. Caller
// holds lc.mu.
func (lc *LinkCache) evictLocked() {
	var victim *cachedLink
	var at string
	for addr, l := range lc.links {
		if l.busy == 0 && (victim == nil || l.used.Before(victim.used)) {
			victim, at = l, addr
		}
	}
	if victim != nil {
		lc.dropLocked(at, victim)
	}
}

// reap is the idle sweep: every linkIdle while the cache holds links, it
// hangs up the ones no request has used for that long.
func (lc *LinkCache) reap() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.reaper = nil
	if lc.closed.Load() {
		return
	}
	cutoff := time.Now().Add(-lc.idle) //lint:wallclock link idleness is measured in real time
	for addr, l := range lc.links {
		if l.busy == 0 && !l.used.After(cutoff) {
			lc.dropLocked(addr, l)
		}
	}
	if len(lc.links) > 0 {
		lc.reaper = time.AfterFunc(lc.idle, lc.reap) //lint:wallclock link idleness is measured in real time
	}
}

// Close hangs up every link, failing the requests in flight on them,
// and makes every later Request fail. It does not wait for those
// requests to return.
func (lc *LinkCache) Close() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.closed.Store(true)
	if lc.reaper != nil {
		lc.reaper.Stop()
		lc.reaper = nil
	}
	for addr, l := range lc.links {
		lc.dropLocked(addr, l)
	}
}
