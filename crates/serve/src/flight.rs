//! Reusable single-flight coordination: at most one *leader* per key does
//! the work; everyone else waits for the leader's result and shares it.
//!
//! The leader holds a [`FlightGuard`] that completes the flight on drop, so
//! a leader that panics (or unwinds through an error path) can never
//! strand followers on the condvar or wedge the key forever. A flight
//! carries the leader's typed result: its followers see the leader's own
//! [`ServeError`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use crate::service::ServeError;

enum FlightState<T> {
    Pending,
    Done(Result<T, ServeError>),
}

struct Flight<T> {
    state: Mutex<FlightState<T>>,
    cv: Condvar,
}

/// What a caller became when it asked to join a flight.
pub(crate) enum Role<'a, K: Eq + Hash + Clone, T: Clone> {
    /// This caller leads: do the work, then `complete` the guard.
    Leader(FlightGuard<'a, K, T>),
    /// Another caller led; this is its shared result.
    Follower(Result<T, ServeError>),
}

/// A keyed set of in-flight operations with leader election.
pub(crate) struct FlightMap<K: Eq + Hash + Clone, T: Clone> {
    flights: Mutex<HashMap<K, Arc<Flight<T>>>>,
}

impl<K: Eq + Hash + Clone, T: Clone> FlightMap<K, T> {
    pub fn new() -> Self {
        FlightMap {
            flights: Mutex::new(HashMap::new()),
        }
    }

    fn join(&self, key: &K) -> (Arc<Flight<T>>, bool) {
        let mut flights = self.flights.lock().unwrap_or_else(|p| p.into_inner());
        match flights.get(key) {
            Some(f) => (Arc::clone(f), false),
            None => {
                let f = Arc::new(Flight {
                    state: Mutex::new(FlightState::Pending),
                    cv: Condvar::new(),
                });
                flights.insert(key.clone(), Arc::clone(&f));
                (f, true)
            }
        }
    }

    /// Blocking join: become the leader, or wait for the current leader
    /// and share its result.
    pub fn lead_or_wait(&self, key: K) -> Role<'_, K, T> {
        let (flight, leader) = self.join(&key);
        if leader {
            return Role::Leader(FlightGuard {
                map: self,
                key,
                flight,
                completed: false,
            });
        }
        let mut st = flight.state.lock().unwrap_or_else(|p| p.into_inner());
        while matches!(*st, FlightState::Pending) {
            st = flight.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        match &*st {
            FlightState::Done(r) => Role::Follower(r.clone()),
            FlightState::Pending => unreachable!("guarded by the wait loop"),
        }
    }
}

/// Completes a flight on drop (see module docs).
pub(crate) struct FlightGuard<'a, K: Eq + Hash + Clone, T: Clone> {
    map: &'a FlightMap<K, T>,
    key: K,
    flight: Arc<Flight<T>>,
    completed: bool,
}

impl<K: Eq + Hash + Clone, T: Clone> FlightGuard<'_, K, T> {
    /// Publish the leader's result to followers and retire the flight.
    pub fn complete(&mut self, result: Result<T, ServeError>) {
        let mut st = self.flight.state.lock().unwrap_or_else(|p| p.into_inner());
        *st = FlightState::Done(result);
        drop(st);
        self.flight.cv.notify_all();
        self.completed = true;
        self.map
            .flights
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.key);
    }
}

impl<K: Eq + Hash + Clone, T: Clone> Drop for FlightGuard<'_, K, T> {
    fn drop(&mut self) {
        if !self.completed {
            let mut st = self.flight.state.lock().unwrap_or_else(|p| p.into_inner());
            if matches!(*st, FlightState::Pending) {
                *st = FlightState::Done(Err(ServeError::Optimize("flight aborted".into())));
            }
            drop(st);
            self.flight.cv.notify_all();
            self.map
                .flights
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_leader_everyone_else_shares() {
        let map = Arc::new(FlightMap::<u64, u64>::new());
        let led = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let map = Arc::clone(&map);
            let led = Arc::clone(&led);
            handles.push(std::thread::spawn(move || match map.lead_or_wait(7) {
                Role::Leader(mut g) => {
                    led.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    g.complete(Ok(42));
                    42
                }
                Role::Follower(r) => r.expect("leader succeeded"),
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("no panic"), 42);
        }
        assert_eq!(led.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    #[test]
    fn dropped_leader_aborts_instead_of_stranding_followers() {
        let map = Arc::new(FlightMap::<u64, u64>::new());
        let follower = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                // Wait until a leader exists, then join as follower.
                loop {
                    let n = map.flights.lock().unwrap().len();
                    if n > 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                match map.lead_or_wait(9) {
                    Role::Leader(mut g) => {
                        // Raced past the abort: lead trivially.
                        g.complete(Err(ServeError::Optimize("led after abort".into())));
                        ServeError::Optimize("led after abort".into())
                    }
                    Role::Follower(r) => r.expect_err("leader aborted"),
                }
            })
        };
        {
            let Role::Leader(_guard) = map.lead_or_wait(9) else {
                panic!("first caller leads");
            };
            std::thread::sleep(std::time::Duration::from_millis(10));
            // Dropped without complete(): simulated leader panic.
        }
        let err = follower.join().expect("no panic");
        let aborted = ServeError::Optimize("flight aborted".into());
        let led = ServeError::Optimize("led after abort".into());
        assert!(err == aborted || err == led, "{err}");
    }
}
