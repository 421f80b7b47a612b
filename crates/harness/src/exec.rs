//! The worker pool: generic, fault-isolated, deterministic task
//! execution on `std::thread`s.
//!
//! `execute` runs one closure over a slice of tasks. Workers pull task
//! indices from a shared atomic counter (no per-worker sharding), so
//! the mapping *task → result* is a pure function of the task list —
//! never of worker identity or count. A panicking task is caught with
//! [`std::panic::catch_unwind`] and recorded as a [`TaskStatus::Failed`]
//! with the panic message; bounded retry covers transient failures.
//! Completed results stream to a callback on the coordinating thread in
//! completion order, and the returned vector is sorted by task index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Worker threads (clamped to ≥ 1 and ≤ the task count).
    pub workers: usize,
    /// Extra attempts after a failure; `0` fails fast. A task is
    /// retried with identical inputs (same index, same task), so a
    /// deterministic panic fails every attempt and only genuinely
    /// transient faults recover.
    pub max_retries: u32,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            workers: available_workers(),
            max_retries: 0,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn available_workers() -> usize {
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Terminal state of one task.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskStatus<R> {
    /// The task returned a value.
    Done(R),
    /// Every attempt failed; `error` is the last panic message or
    /// `Err` payload.
    Failed {
        /// Panic message / error string of the final attempt.
        error: String,
    },
}

/// One task's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskResult<R> {
    /// Index into the task slice passed to [`execute`].
    pub index: usize,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Terminal status.
    pub status: TaskStatus<R>,
}

impl<R> TaskResult<R> {
    /// The result value, if the task succeeded.
    pub fn ok(&self) -> Option<&R> {
        match &self.status {
            TaskStatus::Done(r) => Some(r),
            TaskStatus::Failed { .. } => None,
        }
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `f` under `catch_unwind` with the pool's bounded-retry rule:
/// up to `1 + max_retries` attempts, identical inputs each time, the
/// last error kept. Returns `(attempts consumed, terminal status)`.
fn retrying<R>(
    max_retries: u32,
    mut f: impl FnMut() -> Result<R, String>,
) -> (u32, TaskStatus<R>) {
    let mut last_error = String::new();
    for attempt in 1..=max_retries + 1 {
        match catch_unwind(AssertUnwindSafe(&mut f)) {
            Ok(Ok(r)) => return (attempt, TaskStatus::Done(r)),
            Ok(Err(e)) => last_error = e,
            Err(payload) => last_error = panic_message(payload),
        }
    }
    (max_retries + 1, TaskStatus::Failed { error: last_error })
}

fn run_with_retry<T, R>(
    index: usize,
    task: &T,
    run: &(impl Fn(usize, &T) -> Result<R, String> + Sync),
    max_retries: u32,
) -> TaskResult<R> {
    let (attempts, status) = retrying(max_retries, || run(index, task));
    TaskResult { index, attempts, status }
}

/// Run `run(i, &tasks[i])` for every task on a worker pool.
///
/// `on_done` fires on the calling thread once per task, in *completion*
/// order (racy across workers — suitable for streaming sinks and
/// progress, not for anything order-sensitive). The returned vector is
/// index-sorted and therefore deterministic at any worker count, as
/// long as `run` itself is a pure function of `(index, task)`.
pub fn execute<T, R, F>(
    tasks: &[T],
    opts: &ExecOptions,
    run: F,
    mut on_done: impl FnMut(&TaskResult<R>),
) -> Vec<TaskResult<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, String> + Sync,
{
    let mut slots: Vec<Option<TaskResult<R>>> = Vec::new();
    slots.resize_with(tasks.len(), || None);
    if tasks.is_empty() {
        return Vec::new();
    }
    let workers = opts.workers.clamp(1, tasks.len());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<TaskResult<R>>();
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let result = run_with_retry(i, &tasks[i], run, opts.max_retries);
                if tx.send(result).is_err() {
                    break; // coordinator gone; nothing left to report to
                }
            });
        }
        drop(tx); // workers hold the remaining senders
        while let Ok(result) = rx.recv() {
            on_done(&result);
            let index = result.index;
            slots[index] = Some(result);
        }
    });
    slots
        .into_iter()
        // bct-lint: allow(p1) -- the scoped-thread join above proves every slot was filled; an empty slot is pool-logic corruption
        .map(|s| s.expect("worker pool completed every task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_sorted_and_complete() {
        let tasks: Vec<u64> = (0..50).collect();
        for workers in [1, 3, 8] {
            let opts = ExecOptions { workers, max_retries: 0 };
            let results = execute(&tasks, &opts, |i, t| Ok(t * 2 + i as u64), |_| {});
            assert_eq!(results.len(), 50);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.index, i);
                assert_eq!(r.status, TaskStatus::Done(tasks[i] * 3));
                assert_eq!(r.attempts, 1);
            }
        }
    }

    #[test]
    fn panics_are_isolated() {
        let tasks: Vec<u32> = (0..10).collect();
        let results = execute(
            &tasks,
            &ExecOptions { workers: 4, max_retries: 0 },
            |_, &t| {
                if t == 7 {
                    panic!("task {t} exploded");
                }
                Ok(t)
            },
            |_| {},
        );
        for r in &results {
            match r.index {
                7 => assert_eq!(
                    r.status,
                    TaskStatus::Failed { error: "task 7 exploded".into() }
                ),
                i => assert_eq!(r.status, TaskStatus::Done(i as u32)),
            }
        }
    }

    #[test]
    fn transient_failures_recover_within_retry_budget() {
        use std::sync::Mutex;
        let attempts_seen = Mutex::new(vec![0u32; 4]);
        let tasks = [0usize, 1, 2, 3];
        let results = execute(
            &tasks,
            &ExecOptions { workers: 2, max_retries: 2 },
            |i, _| {
                let attempt = {
                    let mut seen = attempts_seen.lock().unwrap();
                    seen[i] += 1;
                    seen[i]
                }; // lock released before any panic, or it would poison
                // Task 2 fails twice then succeeds; task 3 always panics.
                match (i, attempt) {
                    (2, a) if a <= 2 => Err(format!("transient {a}")),
                    (3, _) => panic!("permanent"),
                    _ => Ok(i),
                }
            },
            |_| {},
        );
        assert_eq!(results[2].status, TaskStatus::Done(2));
        assert_eq!(results[2].attempts, 3);
        assert_eq!(results[3].status, TaskStatus::Failed { error: "permanent".into() });
        assert_eq!(results[3].attempts, 3, "3 = 1 try + 2 retries");
    }

    #[test]
    fn streaming_callback_sees_every_task_once() {
        let tasks: Vec<usize> = (0..32).collect();
        let mut seen = vec![0u32; 32];
        execute(
            &tasks,
            &ExecOptions { workers: 8, max_retries: 0 },
            |i, _| Ok(i),
            |r| seen[r.index] += 1,
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_task_list_is_fine() {
        let results = execute(&[] as &[u8], &ExecOptions::default(), |_, _| Ok(()), |_| {});
        assert!(results.is_empty());
    }
}
