//! The roster of evaluated frameworks.

use crate::adapters::{
    GaloisFramework, GapReference, GkcFramework, GraphItFramework, NwGraphFramework,
    SuiteSparseFramework,
};
use crate::framework::Framework;

/// Display order of Table V's framework rows (GAP is the baseline and is
/// listed first here; Table V shows the others relative to it).
pub fn all_frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(GapReference),
        Box::new(SuiteSparseFramework),
        Box::new(GaloisFramework),
        Box::new(GraphItFramework),
        Box::new(GkcFramework),
        Box::new(NwGraphFramework),
    ]
}

/// The baseline framework name every Table V ratio is computed against.
pub(crate) const BASELINE_FRAMEWORK: &str = "GAP";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    #[test]
    fn six_frameworks_are_registered() {
        let fws = all_frameworks();
        assert_eq!(fws.len(), 6);
        let names: Vec<_> = fws.iter().map(|f| f.name()).collect();
        assert_eq!(
            names,
            ["GAP", "SuiteSparse", "Galois", "GraphIt", "GKC", "NWGraph"]
        );
    }

    #[test]
    fn every_framework_declares_all_algorithms() {
        for fw in all_frameworks() {
            for kernel in Kernel::ALL {
                let choice = fw.algorithm(kernel);
                assert!(
                    !choice.algorithm.is_empty(),
                    "{} has no algorithm for {kernel}",
                    fw.name()
                );
            }
        }
    }

    #[test]
    fn table_three_distinctive_cells_match_paper() {
        let fws = all_frameworks();
        let by_name = |n: &str| {
            fws.iter()
                .find(|f| f.name() == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert_eq!(
            by_name("GraphIt").algorithm(Kernel::Cc).algorithm,
            "Label Propagation"
        );
        assert_eq!(
            by_name("GKC").algorithm(Kernel::Cc).algorithm,
            "Shiloach-Vishkin"
        );
        assert_eq!(
            by_name("SuiteSparse").algorithm(Kernel::Cc).algorithm,
            "FastSV"
        );
        assert_eq!(by_name("GKC").algorithm(Kernel::Tc).algorithm, "Lee & Low");
        assert!(by_name("GAP").algorithm(Kernel::Sssp).bucket_fusion);
        assert!(!by_name("Galois").algorithm(Kernel::Sssp).bucket_fusion);
        assert_eq!(
            by_name("GAP").algorithm(Kernel::Pr).algorithm,
            "Jacobi SpMV"
        );
        assert_eq!(
            by_name("Galois").algorithm(Kernel::Pr).algorithm,
            "Gauss-Seidel SpMV"
        );
    }
}
