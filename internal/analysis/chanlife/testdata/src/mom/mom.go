// Package mom is the chanlife golden fixture: channel fields with
// declared owners, and every violation class the analyzer must catch —
// an undeclared close, a close outside the owner's context, a double
// close, a send after close, a call-mediated re-close, plus the stale
// and malformed declarations.
package mom

type momd struct {
	done  chan struct{} //schedlint:chan-owner Close
	quit  chan struct{}
	away  chan struct{} //schedlint:chan-owner Close
	dbl   chan int      //schedlint:chan-owner reset
	out   chan int      //schedlint:chan-owner flush
	ind   chan int      //schedlint:chan-owner shutdown
	re    chan int      //schedlint:chan-owner recycle
	br    chan int      //schedlint:chan-owner branches
	relay chan int      //schedlint:chan-owner pump
	work  chan int      //schedlint:chan-owner Start

	stale chan int //schedlint:chan-owner Close // want `channel field stale declares closing owner Close but is never closed`
	bogus chan int //schedlint:chan-owner nosuch // want `chan-owner "nosuch" on bogus: no such method on momd or package function`

	notchan int //schedlint:chan-owner Close // want `chan-owner marker on notchan, which is not a channel field`
}

// Close owns done; the helper close below is still inside its
// synchronous context.
func (m *momd) Close() {
	m.closeDoneLocked()
	close(m.quit) // want `close of channel field quit with no declared owner`
}

func (m *momd) closeDoneLocked() { close(m.done) }

// Start's worker goroutine defers the close of work on exit: a
// goroutine spawned from the owner's own context is its delegate, so
// this is legal.
func (m *momd) Start() {
	go func() {
		defer close(m.work)
	}()
}

// spawnAway closes an owned channel from a goroutine spawned outside
// the owner's context: spawnAway is not Close.
func (m *momd) spawnAway() {
	go func() {
		close(m.away) // want `close of channel field away in .* outside its declared owner Close`
	}()
}

func (m *momd) reset() {
	close(m.dbl)
	close(m.dbl) // want `second close of channel field dbl may be reachable`
}

func (m *momd) flush() {
	close(m.out)
	m.out <- 1 // want `send on channel field out may follow its close`
}

func (m *momd) closeInd() { close(m.ind) }

func (m *momd) shutdown() {
	close(m.ind)
	m.closeInd() // want `call to .* may close channel field ind again`
}

// recycle reassigns between the closes: the reconnect pattern, legal.
func (m *momd) recycle() {
	close(m.re)
	m.re = make(chan int)
	m.re <- 1
	close(m.re)
}

// branches closes on disjoint paths: legal.
func (m *momd) branches(b bool) {
	if b {
		close(m.br)
	} else {
		close(m.br)
	}
}

// pump's send is audited: the reader drains relay synchronously
// before pump returns.
func (m *momd) pump() {
	close(m.relay)
	//lint:chanlife fixture exception: reader is joined before the send
	m.relay <- 1
}
