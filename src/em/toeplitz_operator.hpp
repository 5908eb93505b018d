// Matrix-free application of the BEM interaction matrices (P and L) via
// circulant embedding of the displacement table plus FFT.
//
// On a uniform-pitch mesh the potential-coefficient and partial-inductance
// matrices are (multilevel) block-Toeplitz: entry (obs, src) depends only on
// the integer lattice displacement and the (z, z') layer pair — exactly the
// structure the displacement-keyed assembly cache exploits. Instead of
// expanding the table into a dense N×N matrix (O(N²) storage) and applying
// it in O(N²), each z-layer pair's offset table is embedded into a circulant
// kernel on an Nx×Ny grid (power-of-two dims ≥ 2·span+1 so circular
// convolution never wraps into occupied sites) whose FFT is precomputed
// once. A matrix-vector product is then
//
//     scatter x to the grid → FFT → multiply by the kernel spectrum →
//     inverse FFT → gather at the element sites
//
// per layer pair: O(N log N) work and O(grid) memory. Meshes with holes or
// irregular outlines simply leave grid sites unoccupied. The result equals
// the dense product up to FFT rounding (~1e-14 relative).
//
// InteractionOperator is the uniform front the solvers consume: it applies
// either a set of Toeplitz element families (x/y current cells are separate,
// mutually uncoupled families) or, on meshes without the lattice structure,
// a set of ACA-compressed H-matrices. Neither form stores the dense matrix.
#pragma once

#include <memory>
#include <vector>

#include "em/interaction_lattice.hpp"
#include "numeric/fft.hpp"
#include "numeric/matrix.hpp"

namespace pgsi {

class Hmatrix;

/// O(N log N) applier for one congruent element family on a uniform lattice.
class ToeplitzFamily {
public:
    /// lat must be uniform; table is the build_interaction_table layout.
    ToeplitzFamily(Lattice lat, std::vector<double> table);

    std::size_t count() const { return lat_.count(); }

    /// y = T x over the family's elements (both of size count()).
    void apply(const Complex* x, Complex* y) const;

    /// Exact table entry of the (obs, src) element pair.
    double entry(std::size_t obs, std::size_t src) const {
        return table_[table_index(lat_, obs, src)];
    }

    /// Grid memory (complex entries) one application allocates.
    std::size_t grid_size() const { return nx_ * ny_ * lat_.zs.size(); }

private:
    Lattice lat_;
    std::vector<double> table_;
    std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
    std::vector<std::size_t> site_;   ///< element → grid slot
    std::vector<VectorC> kernel_hat_; ///< spectra, indexed zo * nz + zsrc
    Fft fx_, fy_;
};

/// One interaction matrix behind a uniform apply/entry interface: Toeplitz
/// families on uniform meshes or ACA-compressed H-matrices (em/hmatrix.hpp)
/// on non-uniform ones. Cross-family entries are structurally zero.
class InteractionOperator {
public:
    /// Matrix-free form. idx[f] maps family-f-local element order to global
    /// indices; the families must partition [0, size).
    static InteractionOperator toeplitz(std::vector<ToeplitzFamily> families,
                                        std::vector<std::vector<std::size_t>> idx,
                                        std::size_t size);

    /// ACA-compressed form: one H-matrix per element family (same partition
    /// contract as toeplitz()). Parts must be non-null.
    static InteractionOperator hmatrix(
        std::vector<std::shared_ptr<const Hmatrix>> parts,
        std::vector<std::vector<std::size_t>> idx, std::size_t size);

    std::size_t size() const { return size_; }
    /// The H-matrix parts (empty for the Toeplitz form) — build telemetry.
    const std::vector<std::shared_ptr<const Hmatrix>>& hmatrix_parts() const {
        return hmats_;
    }

    /// y = A x (y is resized and overwritten).
    void apply(const VectorC& x, VectorC& y) const;

    /// Exact matrix entry (table lookup or H-matrix read).
    double entry(std::size_t i, std::size_t j) const;

private:
    InteractionOperator() = default;

    /// Fill family_of_/local_of_ from idx_; counts[f] is family f's size.
    /// The families must partition [0, size_).
    void map_families(const std::vector<std::size_t>& counts);

    std::size_t size_ = 0;
    std::vector<ToeplitzFamily> families_;
    std::vector<std::shared_ptr<const Hmatrix>> hmats_;
    std::vector<std::vector<std::size_t>> idx_;
    std::vector<int> family_of_;         ///< global index → family
    std::vector<std::size_t> local_of_;  ///< global index → family-local index
};

} // namespace pgsi
