//! Fixture: `unsafe` outside the allow-list in each form the rule names,
//! and near-misses it must not flag. `crates/rpc/src/sys.rs` below holds
//! the same forms on an allow-listed path and stays clean.
#![allow(unsafe_code)]

pub struct Raw(*mut u8);

unsafe impl Send for Raw {}

pub fn read(p: *const u8) -> u8 {
    unsafe { *p }
}

#[allow(dead_code, unsafe_code)]
pub unsafe fn raw_fn() {}

#[allow(dead_code)]
pub fn near_misses() -> &'static str {
    // unsafe { in a comment }
    let unsafe_count = 0;
    let _ = unsafe_count;
    "unsafe { in a string }"
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_not_exempt() {
        let x = 1u8;
        let _ = unsafe { *(&x as *const u8) };
    }
}
