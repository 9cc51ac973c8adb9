package core

import (
	"runtime"
	"sync"

	"tkcm/internal/window"
)

// tickJob is one extraction + selection task of a tick: a distinct
// reference set and the selection computed for it, inline or by a pool
// worker. The jobs slice and each job's refIdx/selection storage are
// engine-owned and reused across ticks.
type tickJob struct {
	refIdx []int
	sel    anchorSelection
	err    error
}

// tickTarget maps one missing stream onto the job (distinct reference set)
// whose selection it aggregates from; job is -1 for a stream with fewer than
// d present candidates, which is cold-filled.
type tickTarget struct {
	stream int
	job    int
}

// tickPool is the engine's persistent worker pool. It is started once, on
// the first tick that has work for it, and its goroutines live until
// Engine.Close or until the engine is garbage collected: a tick dispatches
// jobs over the channel and waits on the WaitGroup, so the steady-state
// fan-out costs channel sends instead of goroutine spawns and performs no
// allocations.
//
// The pool deliberately holds copies of everything its workers touch (the
// config, the window, the profiler) instead of the *Engine, so the worker
// goroutines never keep the engine struct reachable; a runtime cleanup
// registered at start closes the channel when an abandoned engine is
// collected, releasing the workers and, through them, the window and
// profiler state they pin.
type tickPool struct {
	cfg  Config
	w    *window.Window
	prof Profiler
	jobs chan *tickJob
	wg   sync.WaitGroup
	once sync.Once
}

// stop closes the job channel, terminating the workers. Idempotent: safe to
// call from both Engine.Close and the GC cleanup.
func (p *tickPool) stop() {
	p.once.Do(func() { close(p.jobs) })
}

// worker computes profile + anchor selections for jobs received over the
// pool channel until the pool is stopped. Each job only reads the window
// and prepared profiler state and writes its own selection slot, so
// concurrent jobs never write shared state.
func (p *tickPool) worker(sc *imputeScratch) {
	for jb := range p.jobs {
		jb.err = profileSelectWindow(p.cfg, p.w, jb.refIdx, p.prof, sc, &jb.sel)
		p.wg.Done()
	}
}

// startPool spins up the persistent workers. Worker scratch is fully
// allocated before the first goroutine starts and never grows afterwards,
// so the per-worker scratch pointers stay stable. The scratch backing array
// and the pool are referenced by the workers, but the *Engine itself is
// not, so an abandoned engine stays collectable — and its registered
// cleanup then stops the pool.
func (e *Engine) startPool() {
	nw := e.cfg.Workers
	if len(e.workerScratch) < nw {
		e.workerScratch = make([]imputeScratch, nw)
	}
	p := &tickPool{cfg: e.cfg, w: e.w, prof: e.prof, jobs: make(chan *tickJob, nw)}
	e.pool = p
	for k := 0; k < nw; k++ {
		go p.worker(&e.workerScratch[k])
	}
	runtime.AddCleanup(e, func(p *tickPool) { p.stop() }, p)
}

// dispatch hands the first n resolved jobs to the pool (starting it on
// first use) and blocks until every job's selection slot is filled. The
// happens-before edges of the channel sends publish the job contents to the
// workers; wg.Wait publishes the selections back.
//
// poolMu is held across the sends so a concurrent Close cannot close the
// job channel mid-dispatch; a Close that arrives first simply makes this
// dispatch start a fresh pool, and one that arrives after the sends lets
// the workers drain the already-queued jobs before they exit (stop only
// closes the channel — buffered jobs are still received and completed, so
// wg.Wait always returns).
func (e *Engine) dispatch(n int) {
	e.poolMu.Lock()
	if e.pool == nil {
		e.startPool()
	}
	p := e.pool
	p.wg.Add(n)
	for j := 0; j < n; j++ {
		p.jobs <- &e.jobs[j]
	}
	e.poolMu.Unlock()
	p.wg.Wait()
}

// Close stops the engine's persistent worker pool, if one was started. The
// engine remains usable afterwards (a later parallel tick starts a fresh
// pool). Close is optional — an abandoned engine's pool is stopped by a GC
// cleanup — but deterministic: call it when discarding an engine whose
// Config.Workers exceeded 1 to release the worker goroutines immediately.
//
// Close is idempotent and safe to call concurrently with itself and with an
// in-flight Tick: the tick's already-dispatched jobs still complete (the
// workers drain the closed channel), and its next parallel tick transparently
// starts a fresh pool.
func (e *Engine) Close() {
	e.poolMu.Lock()
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
	e.poolMu.Unlock()
}
