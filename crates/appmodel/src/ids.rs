//! Typed identifiers for application-model entities.
//!
//! All entities live in arenas inside an [`Application`](crate::app::Application);
//! these newtypes keep indices from being mixed up ([C-NEWTYPE]).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw arena index.
            pub const fn from_index(index: usize) -> Self {
                $name(index as u32)
            }

            /// The raw arena index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a [`Module`](crate::module::Module) within an application.
    ModuleId,
    "m"
);
id_type!(
    /// Identifies a [`Function`](crate::function::Function) within an application.
    FunctionId,
    "f"
);
id_type!(
    /// Identifies a [`Library`](crate::library::Library) within an application.
    LibraryId,
    "lib"
);
id_type!(
    /// Identifies a [`Handler`](crate::app::Handler) (entry point) within an application.
    HandlerId,
    "h"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        let id = ModuleId::from_index(42);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(ModuleId::from_index(1).to_string(), "m1");
        assert_eq!(FunctionId::from_index(2).to_string(), "f2");
        assert_eq!(LibraryId::from_index(3).to_string(), "lib3");
        assert_eq!(HandlerId::from_index(4).to_string(), "h4");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(ModuleId::from_index(1) < ModuleId::from_index(2));
    }
}
