//! The shared experiment context.

use netanom_core::{Diagnoser, DiagnoserConfig};
use netanom_traffic::datasets::{self, Dataset};

/// The three canned datasets plus fitted diagnosers, built once and
/// shared by every experiment. Construction costs a few seconds (three
/// traffic weeks + three model fits); experiments borrow from it.
pub struct Lab {
    /// Sprint-Europe week 1.
    pub sprint1: Dataset,
    /// Sprint-Europe week 2.
    pub sprint2: Dataset,
    /// Abilene.
    pub abilene: Dataset,
    /// Diagnoser fitted on `sprint1` at the paper's default 99.9% level.
    pub diag_sprint1: Diagnoser,
    /// Diagnoser fitted on `sprint2`.
    pub diag_sprint2: Diagnoser,
    /// Diagnoser fitted on `abilene`.
    pub diag_abilene: Diagnoser,
}

impl Lab {
    /// Generate all datasets and fit all models.
    pub fn load() -> Self {
        let sprint1 = datasets::sprint1();
        let sprint2 = datasets::sprint2();
        let abilene = datasets::abilene();
        let fit = |ds: &Dataset| {
            Diagnoser::fit(
                ds.links.matrix(),
                &ds.network.routing_matrix,
                DiagnoserConfig::default(),
            )
            .expect("canned datasets always fit")
        };
        let diag_sprint1 = fit(&sprint1);
        let diag_sprint2 = fit(&sprint2);
        let diag_abilene = fit(&abilene);
        Lab {
            sprint1,
            sprint2,
            abilene,
            diag_sprint1,
            diag_sprint2,
            diag_abilene,
        }
    }

    /// The datasets with their diagnosers, in the paper's presentation
    /// order.
    pub fn all(&self) -> [(&Dataset, &Diagnoser); 3] {
        [
            (&self.sprint1, &self.diag_sprint1),
            (&self.sprint2, &self.diag_sprint2),
            (&self.abilene, &self.diag_abilene),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_loads_and_is_consistent() {
        let lab = Lab::load();
        assert_eq!(lab.sprint1.links.num_links(), 49);
        assert_eq!(lab.abilene.links.num_links(), 41);
        for (ds, diag) in lab.all() {
            assert_eq!(diag.model().dim(), ds.links.num_links());
        }
    }
}
