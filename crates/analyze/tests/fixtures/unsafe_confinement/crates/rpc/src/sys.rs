//! Fixture: the allow-listed path may hold every form.
#![allow(unsafe_code)]

pub struct Raw(*mut u8);

unsafe impl Send for Raw {}

pub fn read(p: *const u8) -> u8 {
    // SAFETY: fixture only.
    unsafe { *p }
}
