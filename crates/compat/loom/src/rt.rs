//! The execution core: one token, many threads, exhaustive replay.
//!
//! Exactly one model thread runs at a time; everyone else parks on the
//! condvar. Each scheduling point hands the token to the next thread
//! chosen by [`State::decide`], which replays the recorded prefix and
//! records every branch taken so [`crate::Builder::check`] can backtrack.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

pub(crate) type ThreadId = usize;

/// Why a thread is parked (used to find who a wake should target).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Block {
    /// Waiting in `recv`/`recv_timeout` on the given channel.
    Recv { chan: usize, timed: bool },
    /// Waiting for a mutex to be released.
    Lock { mutex: usize },
    /// Waiting for another model thread to finish.
    Join { target: ThreadId },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    Blocked(Block),
    Finished,
}

/// One recorded branch: which of `options` runnable candidates ran.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decision {
    pub chosen: usize,
    pub options: usize,
}

struct Th {
    run: Run,
    /// Set when a stalled timed receive was elected to fire its deadline.
    timeout_fired: bool,
}

struct ChanMeta {
    senders: usize,
    receiver_alive: bool,
    /// Mirror of the queue length (the payload queue itself is typed and
    /// lives with the channel endpoints).
    len: usize,
}

struct State {
    threads: Vec<Th>,
    active: Option<ThreadId>,
    /// Choices to replay from the previous backtrack.
    prefix: Vec<usize>,
    /// Decisions taken so far this execution.
    path: Vec<Decision>,
    preemptions: usize,
    max_preemptions: Option<usize>,
    /// A model-level failure (deadlock, torn-down scope): every thread
    /// unparks and panics with this message so the run can tear down.
    fail: Option<String>,
    chans: Vec<ChanMeta>,
    mutexes: Vec<bool>,
}

pub(crate) struct Rt {
    state: Mutex<State>,
    cv: Condvar,
}

/// The per-OS-thread model identity: which runtime and which model
/// thread id the current thread acts as.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub rt: Arc<Rt>,
    pub id: ThreadId,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

pub(crate) fn ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone()).expect("loom primitives may only be used inside loom::model")
}

/// What a channel poll observed (under the state lock, so the answer is
/// authoritative until the caller's next scheduling point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Poll {
    Msg,
    Empty,
    Disconnected,
}

impl Rt {
    pub fn new(prefix: Vec<usize>, max_preemptions: Option<usize>) -> Self {
        Rt {
            state: Mutex::new(State {
                threads: vec![Th { run: Run::Runnable, timeout_fired: false }],
                active: Some(0),
                prefix,
                path: Vec::new(),
                preemptions: 0,
                max_preemptions,
                fail: None,
                chans: Vec::new(),
                mutexes: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn st(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ---- registration -------------------------------------------------

    pub fn register_thread(&self) -> ThreadId {
        let mut st = self.st();
        st.threads.push(Th { run: Run::Runnable, timeout_fired: false });
        st.threads.len() - 1
    }

    pub fn register_chan(&self) -> usize {
        let mut st = self.st();
        st.chans.push(ChanMeta { senders: 1, receiver_alive: true, len: 0 });
        st.chans.len() - 1
    }

    pub fn register_mutex(&self) -> usize {
        let mut st = self.st();
        st.mutexes.push(false);
        st.mutexes.len() - 1
    }

    // ---- scheduling ---------------------------------------------------

    /// A scheduling point: the current thread stays runnable and the token
    /// may move. `voluntary` switches (yield/sleep) never count against
    /// the preemption bound.
    pub fn switch(&self, me: ThreadId, voluntary: bool) {
        let mut st = self.st();
        st.threads[me].run = Run::Runnable;
        Self::choose_next(&mut st, me, voluntary);
        self.cv.notify_all();
        self.wait_for_token(st, me);
    }

    /// A freshly spawned thread's first park: runnable from registration,
    /// it simply waits for the token to reach it the first time.
    pub fn wait_first(&self, me: ThreadId) {
        let st = self.st();
        self.wait_for_token(st, me);
    }

    /// Parks the current thread with the given reason and hands the token
    /// on; returns once a wake made it runnable and the token came back.
    pub fn block(&self, me: ThreadId, why: Block) {
        let mut st = self.st();
        st.threads[me].run = Run::Blocked(why);
        Self::choose_next(&mut st, me, false);
        self.cv.notify_all();
        self.wait_for_token(st, me);
    }

    /// Marks the current thread finished, wakes its joiners, and hands
    /// the token on without waiting (the OS thread is about to exit).
    pub fn finish(&self, me: ThreadId) {
        let mut st = self.st();
        st.threads[me].run = Run::Finished;
        for t in st.threads.iter_mut() {
            if t.run == Run::Blocked(Block::Join { target: me }) {
                t.run = Run::Runnable;
            }
        }
        Self::choose_next(&mut st, me, false);
        self.cv.notify_all();
    }

    /// [`Rt::finish`] for the model's root thread, then waits for every
    /// model thread to finish so no thread leaks into the next schedule.
    pub fn finish_and_drain(&self, me: ThreadId) {
        self.finish(me);
        let mut st = self.st();
        loop {
            if st.fail.is_some() || st.threads.iter().all(|t| t.run == Run::Finished) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until `target` finishes (no-op if it already has).
    pub fn join_wait(&self, me: ThreadId, target: ThreadId) {
        {
            let st = self.st();
            if st.threads[target].run == Run::Finished {
                return;
            }
        }
        self.block(me, Block::Join { target });
    }

    pub fn is_finished(&self, id: ThreadId) -> bool {
        self.st().threads[id].run == Run::Finished
    }

    /// Consumes the stall-elected-deadline marker for `me`.
    pub fn take_timeout_fired(&self, me: ThreadId) -> bool {
        let mut st = self.st();
        std::mem::take(&mut st.threads[me].timeout_fired)
    }

    /// Fails the whole execution: every parked thread unparks and panics
    /// with `msg` so the run tears down instead of hanging the harness.
    pub fn poison(&self, msg: &str) {
        let mut st = self.st();
        if st.fail.is_none() {
            st.fail = Some(msg.to_string());
        }
        for t in st.threads.iter_mut() {
            if matches!(t.run, Run::Blocked(_)) {
                t.run = Run::Runnable;
            }
        }
        self.cv.notify_all();
    }

    pub fn take_fail(&self) -> Option<String> {
        self.st().fail.take()
    }

    pub fn take_path(&self) -> Vec<Decision> {
        std::mem::take(&mut self.st().path)
    }

    fn wait_for_token(&self, mut st: MutexGuard<'_, State>, me: ThreadId) {
        loop {
            if st.fail.is_some() {
                break;
            }
            if st.active == Some(me) && st.threads[me].run == Run::Runnable {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let failed = st.fail.clone();
        drop(st);
        if let Some(msg) = failed {
            // unparked by a model failure: unwind out of user code (unless
            // this thread is already unwinding, in which case keep going)
            if !std::thread::panicking() {
                panic!("{msg}");
            }
        }
    }

    /// Replays or records one branch with `options` candidates.
    fn decide(st: &mut State, options: usize) -> usize {
        let i = st.path.len();
        let chosen = if i < st.prefix.len() { st.prefix[i] } else { 0 };
        debug_assert!(chosen < options, "loom: schedule replay diverged");
        st.path.push(Decision { chosen, options });
        chosen
    }

    /// Elects the next token holder. With no runnable thread, a stalled
    /// timed receive fires its deadline; with no timed waiter either, the
    /// model has deadlocked.
    fn choose_next(st: &mut State, me: ThreadId, voluntary: bool) {
        let runnable: Vec<ThreadId> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.run == Run::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            let timed: Vec<ThreadId> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.run, Run::Blocked(Block::Recv { timed: true, .. })))
                .map(|(i, _)| i)
                .collect();
            if !timed.is_empty() {
                // which deadline fires first at a global stall is itself a
                // model branch
                let pick = if timed.len() > 1 { Self::decide(st, timed.len()) } else { 0 };
                let t = timed[pick];
                st.threads[t].timeout_fired = true;
                st.threads[t].run = Run::Runnable;
                st.active = Some(t);
                return;
            }
            if st.threads.iter().all(|t| t.run == Run::Finished) {
                st.active = None;
                return;
            }
            let dump = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| format!("t{i}={:?}", t.run))
                .collect::<Vec<_>>()
                .join(", ");
            st.fail = Some(format!("loom: deadlock — every live thread is blocked ({dump})"));
            for t in st.threads.iter_mut() {
                if matches!(t.run, Run::Blocked(_)) {
                    t.run = Run::Runnable;
                }
            }
            st.active = st.threads.iter().position(|t| t.run == Run::Runnable);
            return;
        }
        let me_runnable = runnable.contains(&me);
        let capped =
            !voluntary && me_runnable && st.max_preemptions.is_some_and(|m| st.preemptions >= m);
        let cands: Vec<ThreadId> = if capped { vec![me] } else { runnable };
        let pick = if cands.len() > 1 { Self::decide(st, cands.len()) } else { 0 };
        let next = cands[pick];
        if !voluntary && me_runnable && next != me {
            st.preemptions += 1;
        }
        st.active = Some(next);
    }

    // ---- channel bookkeeping -----------------------------------------

    /// Accounts one enqueued message and wakes the channel's receiver.
    /// Returns `false` (do not enqueue) when the receiver is gone.
    pub fn chan_send(&self, id: usize) -> bool {
        let mut st = self.st();
        if !st.chans[id].receiver_alive {
            return false;
        }
        st.chans[id].len += 1;
        Self::wake_recv(&mut st, id);
        true
    }

    /// The receiver's view of the channel, consuming one message if any.
    pub fn chan_poll(&self, id: usize) -> Poll {
        let mut st = self.st();
        if st.chans[id].len > 0 {
            st.chans[id].len -= 1;
            Poll::Msg
        } else if st.chans[id].senders == 0 {
            Poll::Disconnected
        } else {
            Poll::Empty
        }
    }

    pub fn chan_clone_sender(&self, id: usize) {
        self.st().chans[id].senders += 1;
    }

    /// Drop bookkeeping runs without a scheduling point so teardown during
    /// unwinding can never park a panicking thread.
    pub fn chan_drop_sender(&self, id: usize) {
        let mut st = self.st();
        st.chans[id].senders -= 1;
        if st.chans[id].senders == 0 {
            Self::wake_recv(&mut st, id);
            self.cv.notify_all();
        }
    }

    pub fn chan_drop_receiver(&self, id: usize) {
        self.st().chans[id].receiver_alive = false;
    }

    fn wake_recv(st: &mut MutexGuard<'_, State>, chan: usize) {
        for t in st.threads.iter_mut() {
            if matches!(t.run, Run::Blocked(Block::Recv { chan: c, .. }) if c == chan) {
                t.run = Run::Runnable;
            }
        }
    }

    // ---- mutex bookkeeping -------------------------------------------

    pub fn mutex_try_acquire(&self, id: usize) -> bool {
        let mut st = self.st();
        if st.mutexes[id] {
            false
        } else {
            st.mutexes[id] = true;
            true
        }
    }

    pub fn mutex_release(&self, id: usize) {
        let mut st = self.st();
        st.mutexes[id] = false;
        for t in st.threads.iter_mut() {
            if t.run == Run::Blocked(Block::Lock { mutex: id }) {
                t.run = Run::Runnable;
            }
        }
        self.cv.notify_all();
    }
}
