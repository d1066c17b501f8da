//! Per-thread run memory. A run — a vexec execution, a recorded request's
//! span buffer — checks its buffers out of the calling thread's cache and
//! parks them there when it ends, so a thread that keeps running keeps its
//! memory instead of handing it to the allocator, which trims the freed
//! heap top and faults the pages in again on the next large run. A parked
//! set never leaves its thread.

use std::any::Any;
use std::cell::RefCell;

/// The run of a growing kind from which a thread parks it. A thread that
/// sets up or warms up a service runs tens of plans and stops, a serving
/// thread runs thousands: only the latter keeps memory between runs. A
/// warm-up longer than this keeps its set too, bounded by its largest run.
pub const PARK_FROM_RUN: u64 = 64;

/// Memory one run checks out and parks. A kind bounded by construction
/// keeps the defaults: it parks from a thread's first run, counts as
/// nothing and is never trimmed.
pub trait RunMemory: Default + 'static {
    /// A kind that grows with its runs parks from a thread's
    /// [`PARK_FROM_RUN`]th run of it, trimmed to the most bytes one of them
    /// had checked out at once.
    const GROWS: bool = false;
    fn bytes(&self) -> usize {
        0
    }
    /// Free buffers until at most `budget` bytes are held.
    fn trim(&mut self, _budget: usize) {}
}

/// One kind's place in a thread's run memory.
struct Slot {
    /// An `Option<T>`, boxed once so that parking allocates nothing.
    parked: Box<dyn Parked>,
    /// Runs of the kind checked out on this thread.
    runs: u64,
    /// The most bytes one of them reported checked out at once.
    most: usize,
}

/// A parked kind, whose bytes can be read without naming it.
trait Parked: Any {
    fn bytes(&self) -> usize;
}

impl<T: RunMemory> Parked for Option<T> {
    fn bytes(&self) -> usize {
        self.as_ref().map_or(0, T::bytes)
    }
}

thread_local! {
    static CACHE: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// This thread's slot for `T`: what it holds parked, its runs, their most.
fn find<T: RunMemory>(slots: &mut [Slot]) -> Option<(&mut Option<T>, &mut u64, &mut usize)> {
    slots.iter_mut().find_map(|Slot { parked, runs, most }| {
        let parked: &mut dyn Any = &mut **parked;
        Some((parked.downcast_mut()?, runs, most))
    })
}

/// Start a run of kind `T`: count it and take this thread's parked `T`, or
/// an empty one.
pub fn check_out<T: RunMemory>() -> T {
    let taken = CACHE.try_with(|c| {
        let slots = &mut *c.borrow_mut();
        let (parked, runs, _) = find::<T>(slots)?;
        *runs += 1;
        parked.take()
    });
    taken.ok().flatten().unwrap_or_default()
}

/// End a run that had at most `peak` bytes checked out at once: park
/// `memory` for this thread's next run of its kind — a growing kind from its
/// [`PARK_FROM_RUN`]th run on, trimmed to the largest such peak on the
/// thread, bounded by use and not by a cap — or else free it.
pub fn park<T: RunMemory>(mut memory: T, peak: usize) {
    let _ = CACHE.try_with(|c| {
        let slots = &mut *c.borrow_mut();
        if find::<T>(slots).is_none() {
            // The thread's first run of the kind, counted here so that
            // checking it out allocated nothing.
            let parked = Box::new(None::<T>);
            slots.push(Slot {
                parked,
                runs: 1,
                most: 0,
            });
        }
        let Some((parked, runs, most)) = find::<T>(slots) else {
            return;
        };
        if T::GROWS {
            if *runs < PARK_FROM_RUN {
                return;
            }
            *most = peak.max(*most);
            memory.trim(*most);
        }
        *parked = Some(memory);
    });
}

/// Bytes parked on this thread, and the most one run of a growing kind had
/// checked out at once on it: the bound on that kind's parked bytes.
pub fn held() -> (usize, usize) {
    let tally = |c: &RefCell<Vec<Slot>>| {
        let slots = c.borrow();
        let bytes = slots.iter().map(|s| s.parked.bytes()).sum();
        (bytes, slots.iter().map(|s| s.most).max().unwrap_or(0))
    };
    CACHE.try_with(tally).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Blocks of the given sizes; trimming frees the last ones first.
    #[derive(Default)]
    struct Blocks(Vec<usize>);

    impl RunMemory for Blocks {
        const GROWS: bool = true;

        fn bytes(&self) -> usize {
            self.0.iter().sum()
        }

        fn trim(&mut self, budget: usize) {
            while self.bytes() > budget {
                self.0.pop();
            }
        }
    }

    /// Bounded by construction.
    #[derive(Default)]
    struct Token(Option<Box<u8>>);

    impl RunMemory for Token {}

    #[test]
    fn parks_from_the_threshold_and_trims_to_the_largest_peak() {
        std::thread::spawn(|| {
            for _ in 1..PARK_FROM_RUN {
                assert!(check_out::<Blocks>().0.is_empty());
                park(Blocks(vec![10]), 10);
            }
            assert_eq!(held(), (0, 0));
            check_out::<Blocks>();
            park(Blocks(vec![100, 50]), 150);
            assert_eq!(held(), (150, 150));
            // A small run takes the set and grows it: what it parks is cut
            // back to the largest run's peak.
            let mut small = check_out::<Blocks>();
            assert_eq!(
                (small.0.as_slice(), held()),
                ([100, 50].as_slice(), (0, 150))
            );
            small.0.push(40);
            park(small, 20);
            assert_eq!(held(), (150, 150));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_kind_bounded_by_construction_parks_from_its_first_run() {
        std::thread::spawn(|| {
            assert!(check_out::<Token>().0.is_none());
            park(Token(Some(Box::new(7))), 0);
            // Its runs do not count towards a growing kind's threshold.
            for _ in 1..PARK_FROM_RUN {
                assert_eq!(check_out::<Token>().0.as_deref(), Some(&7));
                park(Token(Some(Box::new(7))), 0);
                check_out::<Blocks>();
                park(Blocks(vec![10]), 10);
            }
            assert_eq!(held(), (0, 0));
            check_out::<Blocks>();
            park(Blocks(vec![10]), 10);
            assert_eq!(held(), (10, 10));
        })
        .join()
        .unwrap();
    }
}
