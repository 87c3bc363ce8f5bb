//! Sets `cfg(fibers)` where sim threads run as fibers (`src/fiber.rs`):
//! x86-64 Linux. Everywhere else they are OS threads (`src/threads.rs`).

fn main() {
    println!("cargo::rustc-check-cfg=cfg(fibers)");
    let target = |key| std::env::var(key).unwrap_or_default();
    if target("CARGO_CFG_TARGET_ARCH") == "x86_64" && target("CARGO_CFG_TARGET_OS") == "linux" {
        println!("cargo::rustc-cfg=fibers");
    }
}
