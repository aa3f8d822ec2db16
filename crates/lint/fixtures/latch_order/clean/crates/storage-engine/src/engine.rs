//! Clean fixture: every function acquires locks in the documented field
//! order (a → b → c → pool shards), block scoping releases guards before
//! later stages, and the inter-procedural chains stay consistent.

struct Shared {
    a: Mutex<Alpha>,
    b: Mutex<Beta>,
    c: RwLock<Gamma>,
    pool: ShardedPool,
}

struct ShardedPool {
    shards: Vec<Mutex<Frame>>,
}

impl ShardedPool {
    fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut Frame) -> R) -> R {
        f(&mut self.shards[i].lock())
    }

    fn sweep(&self) -> usize {
        let mut n = 0;
        for s in &self.shards {
            n += s.lock().len();
        }
        n
    }
}

impl Shared {
    fn forward(&self) {
        let mut a = self.a.lock();
        let mut b = self.b.lock();
        a.step();
        b.step();
    }

    fn staged(&self) {
        // The guard over `a` is released by its block before `b` is taken,
        // so no a → b edge from a *held* guard... but forward() already
        // orders a before b, which is consistent anyway.
        {
            let mut a = self.a.lock();
            a.step();
        }
        let mut b = self.b.lock();
        b.step();
    }

    fn into_pool(&self) {
        let mut c = self.c.write();
        c.step();
        self.pool.with_shard(0, |f| f.touch());
    }

    fn read_only(&self) -> usize {
        self.c.read().len() + self.pool.sweep()
    }
}

/// A lock behind a shared handle: the `Arc<Mutex<_>>` field is still a lock
/// node, taken once per call and ordered against nothing.
struct Handle {
    engine: Arc<Mutex<Engine>>,
}

impl Handle {
    fn forward(&self) -> usize {
        self.engine.lock().len()
    }
}
