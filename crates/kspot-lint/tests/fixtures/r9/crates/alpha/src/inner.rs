/// Fires: a `pub use` and a `use` name it, nothing else does.
pub struct Reexported;
