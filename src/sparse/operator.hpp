// Abstract linear operators for the sparse-recovery solvers.
//
// Solvers only need S x, S^H y, and the small row Gram matrix S S^H, so
// they are written against this interface. Two implementations exist:
// a dense wrapper and a Kronecker-structured operator exploiting the
// separable AoA x ToA structure of the joint steering matrix (paper
// Eq. 16), which turns the dominant matvec cost from O(M*L*Nth*Ntau)
// into O(M*Nth*Ntau + M*L*Ntau). Both route their matrix products
// through the blocked GEMM kernels in linalg/gemm.hpp; the Kronecker
// operator additionally batches all snapshot columns of apply_mat /
// apply_adjoint_mat into three GEMMs via the reshape trick (see
// DESIGN.md "Operator fast path").
#pragma once

#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::runtime {
class ThreadPool;
}

namespace roarray::sparse {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;
using linalg::index_t;

/// A complex linear map S : C^cols -> C^rows with adjoint access.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual index_t rows() const noexcept = 0;
  [[nodiscard]] virtual index_t cols() const noexcept = 0;

  /// y = S x.
  [[nodiscard]] virtual CVec apply(const CVec& x) const = 0;

  /// x = S^H y.
  [[nodiscard]] virtual CVec apply_adjoint(const CVec& y) const = 0;

  /// Application to a multi-snapshot matrix, written into y (n x k ->
  /// m x k). The default loops apply() over columns, fanning out across
  /// the pool when one is given (each column writes its own contiguous
  /// slice — bit-identical to the serial loop). Implementations may
  /// batch all columns at once; null pool = serial. y is resized if its
  /// shape is wrong and must not alias x; callers that keep a
  /// correctly-sized y across calls (the solvers' hot loops do) pay no
  /// per-call allocation or zero-fill.
  virtual void apply_mat_into(const CMat& x, CMat& y,
                              const runtime::ThreadPool* pool) const;

  /// Adjoint application to a multi-snapshot matrix, written into x
  /// (m x k -> n x k). Same contract as apply_mat_into.
  virtual void apply_adjoint_mat_into(const CMat& y, CMat& x,
                                      const runtime::ThreadPool* pool) const;

  /// Allocating conveniences (forward to the _into virtuals).
  [[nodiscard]] CMat apply_mat(const CMat& x,
                               const runtime::ThreadPool* pool = nullptr) const {
    CMat y;
    apply_mat_into(x, y, pool);
    return y;
  }
  [[nodiscard]] CMat apply_adjoint_mat(
      const CMat& y, const runtime::ThreadPool* pool = nullptr) const {
    CMat x;
    apply_adjoint_mat_into(y, x, pool);
    return x;
  }

  /// The small Gram matrix G = S S^H (rows x rows), used by ADMM through
  /// the Woodbury identity. Default builds it column by column via
  /// apply(apply_adjoint(e_i)).
  [[nodiscard]] virtual CMat row_gram() const;

 protected:
  // Copy/move are protected: this is an abstract base, and public copy
  // operations on a base reference invite accidental slicing. Concrete
  // operators remain freely copyable.
  LinearOperator() = default;
  LinearOperator(const LinearOperator&) = default;
  LinearOperator& operator=(const LinearOperator&) = default;
  LinearOperator(LinearOperator&&) = default;
  LinearOperator& operator=(LinearOperator&&) = default;
};

/// Dense operator wrapping an explicit matrix. Matrix products run
/// through the blocked GEMM (linalg/gemm.hpp).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(CMat s) : s_(std::move(s)) {}

  [[nodiscard]] index_t rows() const noexcept override { return s_.rows(); }
  [[nodiscard]] index_t cols() const noexcept override { return s_.cols(); }
  [[nodiscard]] CVec apply(const CVec& x) const override;
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override;
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override;
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override;
  [[nodiscard]] CMat row_gram() const override;

  [[nodiscard]] const CMat& matrix() const noexcept { return s_; }

 private:
  CMat s_;
};

/// Kronecker-structured operator S = right (x) left, where
/// left is M x N_l (the AoA steering factor A_theta) and right is
/// L x N_r (the ToA steering factor A_tau).
///
/// Index conventions match the paper's CSI stacking (Eq. 15/16):
/// output index l * M + m (antenna-fastest), unknown index j * N_l + i
/// (AoA-fastest), so column (i, j) equals right.col(j) (x) left.col(i).
///
/// apply_mat / apply_adjoint_mat process all snapshot columns at once:
/// the column-major unknown block X (N_l*N_r x K) *is* an N_l x (N_r*K)
/// matrix, so the forward map is three batched GEMMs (left * X, a
/// deterministic permutation, * right^T) instead of K per-column
/// applies — parallelism comes from the GEMM output tiles, not from the
/// K snapshot columns.
class KroneckerOperator final : public LinearOperator {
 public:
  /// The constructor precomputes the factor transposes the batched
  /// kernels consume (right^T for the forward map, conj(right) and
  /// left^H for the adjoint) so no per-application rearrangement or
  /// allocation is needed; they are immutable, so sharing one operator
  /// across threads stays safe.
  KroneckerOperator(CMat left, CMat right)
      : left_(std::move(left)), right_(std::move(right)),
        left_adj_(linalg::adjoint(left_)),
        right_t_(linalg::transpose(right_)),
        right_conj_(linalg::conjugate(right_)) {}

  [[nodiscard]] index_t rows() const noexcept override {
    return left_.rows() * right_.rows();
  }
  [[nodiscard]] index_t cols() const noexcept override {
    return left_.cols() * right_.cols();
  }
  [[nodiscard]] CVec apply(const CVec& x) const override;
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override;
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override;
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override;

  /// G = (right right^H) (x) (left left^H), formed from the two small
  /// factor Grams — never touches the full column dimension.
  [[nodiscard]] CMat row_gram() const override;

  [[nodiscard]] const CMat& left() const noexcept { return left_; }
  [[nodiscard]] const CMat& right() const noexcept { return right_; }
  /// The precomputed factor forms left^H, right^T and conj(right); the
  /// fused FISTA iteration (sparse/fista.hpp) runs on them directly.
  [[nodiscard]] const CMat& left_adjoint() const noexcept { return left_adj_; }
  [[nodiscard]] const CMat& right_transpose() const noexcept {
    return right_t_;
  }
  [[nodiscard]] const CMat& right_conjugate() const noexcept {
    return right_conj_;
  }

  /// Materializes the dense matrix (tests / small problems only).
  [[nodiscard]] CMat to_dense() const;

 private:
  /// Batched forward/adjoint kernel shared by apply and apply_mat:
  /// x and y are column-major blocks of k snapshot columns.
  void apply_batched(const cxd* x, index_t k, cxd* y,
                     const runtime::ThreadPool* pool) const;
  void apply_adjoint_batched(const cxd* y, index_t k, cxd* x,
                             const runtime::ThreadPool* pool) const;

  CMat left_;        // M x N_l
  CMat right_;       // L x N_r
  CMat left_adj_;    // left^H (N_l x M), precomputed for the adjoint
  CMat right_t_;     // right^T (N_r x L), precomputed for the forward
  CMat right_conj_;  // conj(right) (L x N_r), precomputed for the adjoint
};

/// Restriction of a Kronecker operator to a factored (Cartesian)
/// column support: keep AoA columns I = left_support and ToA columns
/// J = right_support, i.e. the full columns {j * N_l + i : i in I,
/// j in J}. Because the support factors per dimension, the restricted
/// dictionary is itself a Kronecker product of the gathered factor
/// columns — so the sub-operator keeps the batched three-GEMM fast
/// path of KroneckerOperator, with per-application cost scaling in
/// |I| and |J| instead of N_l and N_r. This is the solve stage of the
/// coarse-to-fine path (sparse/coarse_fine.hpp): FISTA / ADMM /
/// group solvers run on it unchanged, and scatter() embeds the
/// restricted solution back into full-grid coordinates.
class SupportOperator final : public LinearOperator {
 public:
  /// Both supports must be non-empty, strictly increasing, and within
  /// the source factor's column range (throws std::invalid_argument
  /// otherwise). The gathered factor columns are copied, so the source
  /// operator may be destroyed afterwards.
  SupportOperator(const KroneckerOperator& full,
                  std::vector<index_t> left_support,
                  std::vector<index_t> right_support);

  [[nodiscard]] index_t rows() const noexcept override { return sub_.rows(); }
  [[nodiscard]] index_t cols() const noexcept override { return sub_.cols(); }
  [[nodiscard]] CVec apply(const CVec& x) const override {
    return sub_.apply(x);
  }
  [[nodiscard]] CVec apply_adjoint(const CVec& y) const override {
    return sub_.apply_adjoint(y);
  }
  void apply_mat_into(const CMat& x, CMat& y,
                      const runtime::ThreadPool* pool) const override {
    sub_.apply_mat_into(x, y, pool);
  }
  void apply_adjoint_mat_into(const CMat& y, CMat& x,
                              const runtime::ThreadPool* pool) const override {
    sub_.apply_adjoint_mat_into(y, x, pool);
  }
  [[nodiscard]] CMat row_gram() const override { return sub_.row_gram(); }

  [[nodiscard]] const std::vector<index_t>& left_support() const noexcept {
    return left_support_;
  }
  [[nodiscard]] const std::vector<index_t>& right_support() const noexcept {
    return right_support_;
  }
  /// Column count of the full (unrestricted) operator.
  [[nodiscard]] index_t full_cols() const noexcept { return full_cols_; }

  /// Full-grid column index of restricted unknown `local`
  /// (local = b * |I| + a maps to right_support[b] * N_l +
  /// left_support[a], preserving the AoA-fastest layout).
  [[nodiscard]] index_t full_index(index_t local) const;

  /// Embeds a restricted solution into full-grid coordinates (zeros
  /// off-support). Matrix overload scatters every snapshot column.
  [[nodiscard]] CVec scatter(const CVec& x_restricted) const;
  [[nodiscard]] CMat scatter(const CMat& x_restricted) const;

  /// The inner restricted Kronecker operator (tests / diagnostics).
  [[nodiscard]] const KroneckerOperator& sub() const noexcept { return sub_; }

 private:
  std::vector<index_t> left_support_;
  std::vector<index_t> right_support_;
  index_t full_left_cols_ = 0;
  index_t full_cols_ = 0;
  KroneckerOperator sub_;
};

}  // namespace roarray::sparse
