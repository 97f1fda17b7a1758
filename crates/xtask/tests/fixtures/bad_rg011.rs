//! RG011 fixture: a lock guard held across a blocking call.
//! Dropping, scoping or handing the guard to a `Condvar` wait passes.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, RwLock};

/// Decodes through a cache, wrongly parsing while the lock is held.
pub fn cached_decode(cache: &Mutex<HashMap<u32, String>>, off: u32) -> String {
    let mut guard = match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(hit) = guard.get(&off) {
        return hit.clone();
    }
    let rec = decode_record(off);
    guard.insert(off, rec.clone());
    rec
}

/// Naps while holding a read guard.
pub fn nap_with_lock(lock: &RwLock<u32>) -> u32 {
    let guard = match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    std::thread::sleep(std::time::Duration::from_millis(1));
    *guard
}

/// The correct shape: probe under a scoped guard, decode unlocked.
pub fn correct_decode(cache: &Mutex<HashMap<u32, String>>, off: u32) -> String {
    {
        let guard = match cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(hit) = guard.get(&off) {
            return hit.clone();
        }
    }
    let rec = decode_record(off);
    let mut guard = match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.insert(off, rec.clone());
    rec
}

/// Explicitly dropping the guard before the call also passes.
pub fn drop_then_decode(cache: &Mutex<HashMap<u32, String>>, off: u32) -> String {
    let guard = match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let missing = !guard.contains_key(&off);
    drop(guard);
    if missing {
        decode_record(off)
    } else {
        String::new()
    }
}

fn decode_record(off: u32) -> String {
    off.to_string()
}

/// Waits on a condvar in all three shapes: each wait takes the guard
/// and releases the lock while it blocks, so none is flagged.
pub fn wait_for_ready(ready: &Mutex<bool>, cv: &Condvar) -> bool {
    let mut guard = match ready.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard = match cv.wait(guard) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard = match cv.wait_timeout(guard, std::time::Duration::from_millis(1)) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    };
    guard = match cv.wait_while(guard, |ready| !*ready) {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard
}

/// Waits while holding a second lock: the wait releases only the guard
/// it is handed, so `log` stays locked while it blocks.
pub fn wait_holding_another(log: &Mutex<Vec<u32>>, ready: &Mutex<bool>, cv: &Condvar) -> usize {
    let entries = match log.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let guard = match ready.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let waited = cv.wait_timeout_while(guard, std::time::Duration::from_millis(1), |r| !*r);
    drop(waited);
    entries.len()
}
