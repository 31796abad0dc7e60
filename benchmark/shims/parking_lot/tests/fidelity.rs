use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

static GLOBAL: Mutex<Option<u32>> = Mutex::new(None);

#[test]
fn a_panic_while_locked_does_not_poison() {
    let shared = Arc::new(Mutex::new(1u32));
    let held = shared.clone();
    let outcome = std::thread::spawn(move || {
        let mut guard = held.lock();
        *guard = 2;
        panic!("while holding the lock");
    })
    .join();
    assert!(outcome.is_err());
    // `std::sync::Mutex::lock` would return `Err(PoisonError)` here.
    let guard: MutexGuard<'_, u32> = shared.lock();
    assert_eq!(*guard, 2);
}

#[test]
fn a_static_mutex_is_built_in_a_constant() {
    *GLOBAL.lock() = Some(7);
    assert_eq!(*GLOBAL.lock(), Some(7));
}
