//! Seeded-violation fixture: three deadlock shapes the pass must catch.
//!
//! 1. A *direct* inversion: `forward` locks a then b, `backward` locks b
//!    then a — a 2-cycle in the acquisition-order graph.
//! 2. An *inter-procedural* inversion: `outer` holds c and calls `helper`,
//!    whose callee `deep` locks d; `other` holds d and (via `relay`) locks
//!    c.  The c → d → c cycle only exists through the call graph.
//! 3. A re-acquisition: `reentrant` locks a while already holding it.

struct Shared {
    a: Mutex<Alpha>,
    b: Mutex<Beta>,
    c: Mutex<Gamma>,
    d: Mutex<Delta>,
}

impl Shared {
    fn forward(&self) {
        let mut a = self.a.lock();
        let mut b = self.b.lock();
        a.step();
        b.step();
    }

    fn backward(&self) {
        let mut b = self.b.lock();
        let mut a = self.a.lock();
        b.step();
        a.step();
    }

    fn outer(&self) {
        let mut c = self.c.lock();
        c.step();
        self.helper();
    }

    fn helper(&self) {
        self.deep();
    }

    fn deep(&self) {
        let mut d = self.d.lock();
        d.step();
    }

    fn other(&self) {
        let mut d = self.d.lock();
        d.step();
        self.relay();
    }

    fn relay(&self) {
        let mut c = self.c.lock();
        c.step();
    }

    fn reentrant(&self) {
        let a = self.a.lock();
        let again = self.a.lock();
        a.step();
        again.step();
    }
}

/// 4. An inversion through a lock behind a shared handle: `Handle.engine`
///    is an `Arc<Mutex<_>>`, and the two methods below take it and
///    `Shared.a` in opposite orders.
struct Handle {
    engine: Arc<Mutex<Engine>>,
    shared: Shared,
}

impl Handle {
    fn engine_then_a(&self) {
        let e = self.engine.lock();
        let a = self.shared.a.lock();
        e.step();
        a.step();
    }

    fn a_then_engine(&self) {
        let a = self.shared.a.lock();
        let e = self.engine.lock();
        a.step();
        e.step();
    }
}
